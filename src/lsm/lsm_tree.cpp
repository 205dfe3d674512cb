#include "lsm/lsm_tree.h"

#include <algorithm>
#include <optional>

namespace bandslim::lsm {

namespace {
constexpr std::uint32_t kManifestMagic = 0x4D414E46;  // "MANF"

void EncodeMeta(Bytes* out, const SSTableMeta& m) {
  PutU64(out, m.id);
  PutU64(out, m.first_lpn);
  PutU32(out, m.page_count);
  PutU32(out, m.entry_count);
  PutU64(out, m.encoded_bytes);
  PutLengthPrefixed(out, m.min_key);
  PutLengthPrefixed(out, m.max_key);
  PutU32(out, static_cast<std::uint32_t>(m.bloom.bits().size()));
  out->insert(out->end(), m.bloom.bits().begin(), m.bloom.bits().end());
  PutU32(out, static_cast<std::uint32_t>(m.fence_keys.size()));
  for (const std::string& k : m.fence_keys) PutLengthPrefixed(out, k);
}

Status DecodeMeta(ByteSpan data, std::size_t* offset, SSTableMeta* m) {
  BANDSLIM_RETURN_IF_ERROR(GetU64(data, offset, &m->id));
  BANDSLIM_RETURN_IF_ERROR(GetU64(data, offset, &m->first_lpn));
  BANDSLIM_RETURN_IF_ERROR(GetU32(data, offset, &m->page_count));
  BANDSLIM_RETURN_IF_ERROR(GetU32(data, offset, &m->entry_count));
  BANDSLIM_RETURN_IF_ERROR(GetU64(data, offset, &m->encoded_bytes));
  BANDSLIM_RETURN_IF_ERROR(GetLengthPrefixed(data, offset, &m->min_key));
  BANDSLIM_RETURN_IF_ERROR(GetLengthPrefixed(data, offset, &m->max_key));
  std::uint32_t bloom_bytes = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(data, offset, &bloom_bytes));
  if (*offset + bloom_bytes > data.size()) {
    return Status::Corruption("truncated bloom filter");
  }
  m->bloom = BloomFilter(
      Bytes(data.begin() + static_cast<std::ptrdiff_t>(*offset),
            data.begin() + static_cast<std::ptrdiff_t>(*offset + bloom_bytes)));
  *offset += bloom_bytes;
  std::uint32_t fences = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(data, offset, &fences));
  m->fence_keys.resize(fences);
  for (std::uint32_t f = 0; f < fences; ++f) {
    BANDSLIM_RETURN_IF_ERROR(GetLengthPrefixed(data, offset, &m->fence_keys[f]));
  }
  return Status::Ok();
}
}  // namespace

LsmTree::LsmTree(ftl::PageFtl* ftl, stats::MetricsRegistry* metrics,
                 LsmConfig config, telemetry::EventLog* event_log)
    : ftl_(ftl),
      config_(config),
      mem_(config.seed),
      levels_(static_cast<std::size_t>(config.max_levels)),
      compaction_counter_(metrics->GetCounter("lsm.compactions")),
      flush_counter_(metrics->GetCounter("lsm.memtable_flushes")),
      bloom_skip_counter_(metrics->GetCounter("lsm.bloom_skips")),
      stall_counter_(metrics->GetCounter("lsm.memtable_stalls")),
      compaction_bytes_counter_(
          metrics->GetCounter("lsm.compaction_bytes_written")),
      event_log_(event_log) {}

Status LsmTree::Put(const std::string& key, const ValueRef& ref) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key must be 1..16 bytes");
  }
  mem_.Put(key, ref);
  if (mem_.approximate_bytes() >=
      config_.memtable_limit_bytes + flush_deferral_bytes_) {
    return FlushMemTable();
  }
  return Status::Ok();
}

Result<std::shared_ptr<const std::vector<SSTableEntry>>> LsmTree::LoadPage(
    const SSTableMeta& meta, std::uint32_t page_index) {
  const std::uint64_t lpn = meta.first_lpn + page_index;
  auto it = page_cache_.find(lpn);
  if (it != page_cache_.end()) return it->second;
  auto entries = ReadSSTablePage(ftl_, meta, page_index);
  if (!entries.ok()) return entries.status();
  auto page = std::make_shared<const std::vector<SSTableEntry>>(
      std::move(entries).value());
  page_cache_.emplace(lpn, page);
  page_cache_fifo_.push_back(lpn);
  while (page_cache_fifo_.size() > config_.page_cache_pages) {
    page_cache_.erase(page_cache_fifo_.front());
    page_cache_fifo_.pop_front();
  }
  return page;
}

void LsmTree::InvalidatePages(const SSTableMeta& meta) {
  for (std::uint32_t p = 0; p < meta.page_count; ++p) {
    page_cache_.erase(meta.first_lpn + p);
  }
}

Result<const ValueRef*> LsmTree::FindInTable(Table& table,
                                             const std::string& key,
                                             ValueRef* storage) {
  const SSTableMeta& meta = table.meta;
  if (key < meta.min_key || meta.max_key < key) {
    return static_cast<const ValueRef*>(nullptr);
  }
  if (!meta.bloom.MayContain(key)) {
    bloom_skip_counter_->Increment();
    return static_cast<const ValueRef*>(nullptr);
  }
  auto search = [&](const std::vector<SSTableEntry>& entries) -> const ValueRef* {
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const SSTableEntry& e, const std::string& k) { return e.key < k; });
    if (pos != entries.end() && pos->key == key) {
      *storage = pos->ref;
      return storage;
    }
    return nullptr;
  };
  if (table.cache != nullptr) {
    return search(*table.cache);
  }
  const int page = meta.PageForKey(key);
  if (page < 0) return static_cast<const ValueRef*>(nullptr);
  auto entries = LoadPage(meta, static_cast<std::uint32_t>(page));
  if (!entries.ok()) return entries.status();
  return search(*entries.value());
}

Result<ValueRef> LsmTree::Get(const std::string& key) {
  if (const ValueRef* ref = mem_.Get(key)) {
    if (ref->tombstone) return Status::NotFound();
    return *ref;
  }
  ValueRef storage;
  // L0 runs may overlap: newest (back) wins.
  auto& l0 = levels_[0];
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    auto found = FindInTable(*it, key, &storage);
    if (!found.ok()) return found.status();
    if (found.value() != nullptr) {
      if (found.value()->tombstone) return Status::NotFound();
      return *found.value();
    }
  }
  // Deeper levels are sorted and disjoint.
  for (std::size_t level = 1; level < levels_.size(); ++level) {
    auto& tables = levels_[level];
    auto t = std::partition_point(
        tables.begin(), tables.end(),
        [&](const Table& tab) { return tab.meta.max_key < key; });
    if (t == tables.end() || key < t->meta.min_key) continue;
    auto found = FindInTable(*t, key, &storage);
    if (!found.ok()) return found.status();
    if (found.value() != nullptr) {
      if (found.value()->tombstone) return Status::NotFound();
      return *found.value();
    }
  }
  return Status::NotFound();
}

Status LsmTree::Load(Table& table, std::uint32_t age,
                     std::vector<MergeInput>* inputs) {
  if (table.cache == nullptr) {
    auto entries = ReadSSTable(ftl_, table.meta);
    if (!entries.ok()) return entries.status();
    table.cache = std::make_shared<const std::vector<SSTableEntry>>(
        std::move(entries).value());
  }
  inputs->push_back({table.cache, age});
  return Status::Ok();
}

Status LsmTree::FlushMemTable() {
  if (mem_.empty()) return Status::Ok();
  flush_in_progress_ = true;
  // A flush that lands while L0 already sits at its compaction trigger is a
  // write stall: the inline compaction it forces happens on the caller's
  // (virtual) time, exactly the MemTable-stall regime of RocksDB-style LSMs.
  if (levels_[0].size() + 1 >=
      static_cast<std::size_t>(config_.l0_compaction_trigger)) {
    ++memtable_stalls_;
    stall_counter_->Increment();
    if (event_log_ != nullptr) {
      event_log_->Emit(telemetry::EventType::kMemtableStall,
                       mem_.approximate_bytes(), levels_[0].size());
    }
  }
  TableWriter writer(ftl_, next_table_id_++, next_lpn_);
  Status status = Status::Ok();
  for (auto it = mem_.Begin(); it.Valid() && status.ok(); it.Next()) {
    status = writer.Add({it.key(), it.ref()});
  }
  if (status.ok()) status = Install(&writer, 0);
  if (!status.ok()) {
    flush_in_progress_ = false;
    return status;
  }
  mem_.Clear();
  ++memtable_flushes_;
  flush_counter_->Increment();
  const Status compacted = MaybeCompact();
  flush_in_progress_ = false;
  return compacted;
}

std::uint64_t LsmTree::LevelBytes(int level) const {
  std::uint64_t total = 0;
  for (const Table& t : levels_[static_cast<std::size_t>(level)]) {
    total += t.meta.encoded_bytes;
  }
  return total;
}

std::uint64_t LsmTree::TargetBytes(int level) const {
  if (level == 0) return 0;
  double target = static_cast<double>(config_.level_base_bytes);
  for (int l = 1; l < level; ++l) target *= config_.level_size_ratio;
  return static_cast<std::uint64_t>(target);
}

bool LsmTree::LevelDue(int level, std::size_t l0_runs) const {
  const auto& tables = levels_[static_cast<std::size_t>(level)];
  if (level == 0) return tables.size() >= l0_runs;
  return !tables.empty() && LevelBytes(level) > TargetBytes(level);
}

std::uint64_t LsmTree::CompactionDebtBytes() const {
  std::uint64_t debt = 0;
  for (int level = 0; level + 1 < config_.max_levels; ++level) {
    if (LevelDue(level,
                 static_cast<std::size_t>(config_.l0_compaction_trigger))) {
      debt += LevelBytes(level) - TargetBytes(level);
    }
  }
  return debt;
}

bool LsmTree::TargetIsBottomMost(int target_level) const {
  for (std::size_t l = static_cast<std::size_t>(target_level) + 1;
       l < levels_.size(); ++l) {
    if (!levels_[l].empty()) return false;
  }
  return true;
}

void LsmTree::DropTable(const Table& table) {
  InvalidatePages(table.meta);
  // Do NOT trim yet: the last durable manifest may still reference this
  // table; a power cycle would otherwise resurrect dangling entries.
  pending_drops_.push_back(table.meta);
}

Status LsmTree::TrimPendingDrops() {
  for (const SSTableMeta& meta : pending_drops_) {
    for (std::uint32_t p = 0; p < meta.page_count; ++p) {
      BANDSLIM_RETURN_IF_ERROR(ftl_->Trim(meta.first_lpn + p));
    }
  }
  pending_drops_.clear();
  return Status::Ok();
}

Status LsmTree::Install(TableWriter* writer, int level) {
  auto meta = writer->Finish();
  if (!meta.ok()) return meta.status();
  next_lpn_ += meta.value().page_count;
  Table table{std::move(meta).value(),
              std::make_shared<const std::vector<SSTableEntry>>(
                  std::move(writer->entries()))};
  auto& tables = levels_[static_cast<std::size_t>(level)];
  auto pos = level == 0
                 ? tables.end()
                 : std::lower_bound(tables.begin(), tables.end(),
                                    table.meta.min_key,
                                    [](const Table& t, const std::string& k) {
                                      return t.meta.min_key < k;
                                    });
  tables.insert(pos, std::move(table));
  return Status::Ok();
}

Status LsmTree::Compact(int level) {
  auto& src = levels_[static_cast<std::size_t>(level)];
  if (src.empty()) return Status::Ok();
  // Cleared on every return, the error paths included.
  struct InProgress {
    bool* flag;
    ~InProgress() { *flag = false; }
  } in_progress{&compaction_in_progress_};
  compaction_in_progress_ = true;
  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kCompactionStart,
                     static_cast<std::uint64_t>(level), src.size());
  }
  // L0 runs overlap, so all of L0 goes down at once. A deeper level sends
  // its first table: a deterministic rotation, since outputs re-enter in
  // key order and repeated picks sweep the key space.
  const std::size_t victims = level == 0 ? src.size() : 1;
  std::string lo = src.front().meta.min_key;
  std::string hi = src.front().meta.max_key;
  for (std::size_t i = 1; i < victims; ++i) {
    lo = std::min(lo, src[i].meta.min_key);
    hi = std::max(hi, src[i].meta.max_key);
  }

  // Every input is loaded before the layout changes, so a failed read
  // leaves the tree as it was. Victims go newest first; the next level's
  // tables are disjoint and share the oldest age.
  std::vector<MergeInput> inputs;
  for (std::size_t i = victims; i-- > 0;) {
    BANDSLIM_RETURN_IF_ERROR(
        Load(src[i], static_cast<std::uint32_t>(victims - 1 - i), &inputs));
  }
  auto& next = levels_[static_cast<std::size_t>(level) + 1];
  std::vector<std::size_t> consumed;
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (!next[i].meta.Overlaps(lo, hi)) continue;
    BANDSLIM_RETURN_IF_ERROR(
        Load(next[i], static_cast<std::uint32_t>(victims), &inputs));
    consumed.push_back(i);
  }

  for (std::size_t i = 0; i < victims; ++i) DropTable(src[i]);
  src.erase(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(victims));
  for (auto it = consumed.rbegin(); it != consumed.rend(); ++it) {
    DropTable(next[*it]);
    next.erase(next.begin() + static_cast<std::ptrdiff_t>(*it));
  }

  // A program failure from here on returns with the inputs dropped; the
  // durable manifest still names them, as trims wait for a Checkpoint().
  const int target = level + 1;
  std::optional<TableWriter> out;
  std::uint64_t bytes_written = 0;
  auto install = [&] {
    bytes_written += out->encoded_bytes();
    return Install(&*out, target);
  };
  Status status = MergeRuns(
      inputs, TargetIsBottomMost(target), [&](const SSTableEntry& e) {
        // A new table starts where the next entry would take this one past
        // the target size.
        if (out && out->encoded_bytes() + EncodedEntrySize(e) >
                       config_.sstable_target_bytes) {
          BANDSLIM_RETURN_IF_ERROR(install());
          out.reset();
        }
        if (!out) out.emplace(ftl_, next_table_id_++, next_lpn_);
        return out->Add(e);
      });
  if (status.ok() && out) status = install();
  BANDSLIM_RETURN_IF_ERROR(status);
  ++compactions_run_;
  compaction_counter_->Increment();
  compaction_bytes_written_ += bytes_written;
  compaction_bytes_counter_->Add(bytes_written);
  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kCompactionEnd,
                     static_cast<std::uint64_t>(level), bytes_written);
  }
  return Status::Ok();
}

Status LsmTree::MaybeCompact() {
  const auto l0_trigger =
      static_cast<std::size_t>(config_.l0_compaction_trigger);
  for (int pass = 0; pass < 64; ++pass) {
    bool did_work = false;
    for (int level = 0; level + 1 < config_.max_levels; ++level) {
      if (!LevelDue(level, l0_trigger)) continue;
      BANDSLIM_RETURN_IF_ERROR(Compact(level));
      did_work = true;
    }
    if (!did_work) return Status::Ok();
  }
  return Status::Ok();  // Bounded effort; remaining debt clears on later ops.
}

Result<bool> LsmTree::CompactStep(std::size_t l0_min_runs) {
  for (int level = 0; level + 1 < config_.max_levels; ++level) {
    if (!LevelDue(level, std::max<std::size_t>(l0_min_runs, 1))) continue;
    BANDSLIM_RETURN_IF_ERROR(Compact(level));
    return true;
  }
  return false;
}

Status LsmTree::Checkpoint(std::uint64_t cookie) {
  BANDSLIM_RETURN_IF_ERROR(FlushMemTable());
  Bytes stream;
  PutU32(&stream, kManifestMagic);
  PutU32(&stream, 0);  // Page count, patched below.
  PutU64(&stream, cookie);
  PutU64(&stream, next_table_id_);
  PutU64(&stream, next_lpn_);
  PutU32(&stream, static_cast<std::uint32_t>(levels_.size()));
  for (const auto& level : levels_) {
    PutU32(&stream, static_cast<std::uint32_t>(level.size()));
    for (const Table& t : level) EncodeMeta(&stream, t.meta);
  }
  const std::uint32_t pages =
      static_cast<std::uint32_t>(CeilDiv(stream.size(), kNandPageSize));
  for (int i = 0; i < 4; ++i) {
    stream[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(pages >> (8 * i));
  }
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::size_t off = static_cast<std::size_t>(p) * kNandPageSize;
    const std::size_t n = std::min(kNandPageSize, stream.size() - off);
    BANDSLIM_RETURN_IF_ERROR(ftl_->Write(kManifestLpn + p,
                                         ByteSpan(stream).subspan(off, n),
                                         ftl::Stream::kLsm, /*retain=*/true));
  }
  // The new manifest is durable: pages referenced only by older manifests
  // can now be reclaimed.
  return TrimPendingDrops();
}

Result<std::uint64_t> LsmTree::Restore() {
  if (!ftl_->IsMapped(kManifestLpn)) {
    return Status::NotFound("no manifest");
  }
  Bytes first(kNandPageSize);
  BANDSLIM_RETURN_IF_ERROR(ftl_->Read(kManifestLpn, MutByteSpan(first)));
  std::size_t offset = 0;
  std::uint32_t magic = 0;
  std::uint32_t pages = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(ByteSpan(first), &offset, &magic));
  if (magic != kManifestMagic) return Status::Corruption("bad manifest magic");
  BANDSLIM_RETURN_IF_ERROR(GetU32(ByteSpan(first), &offset, &pages));
  Bytes stream(static_cast<std::size_t>(pages) * kNandPageSize);
  std::copy(first.begin(), first.end(), stream.begin());
  for (std::uint32_t p = 1; p < pages; ++p) {
    BANDSLIM_RETURN_IF_ERROR(ftl_->Read(
        kManifestLpn + p,
        MutByteSpan(stream).subspan(static_cast<std::size_t>(p) * kNandPageSize,
                                    kNandPageSize)));
  }
  std::uint64_t cookie = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU64(ByteSpan(stream), &offset, &cookie));
  BANDSLIM_RETURN_IF_ERROR(GetU64(ByteSpan(stream), &offset, &next_table_id_));
  BANDSLIM_RETURN_IF_ERROR(GetU64(ByteSpan(stream), &offset, &next_lpn_));
  std::uint32_t num_levels = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(ByteSpan(stream), &offset, &num_levels));
  levels_.assign(num_levels, {});
  for (std::uint32_t l = 0; l < num_levels; ++l) {
    std::uint32_t count = 0;
    BANDSLIM_RETURN_IF_ERROR(GetU32(ByteSpan(stream), &offset, &count));
    for (std::uint32_t i = 0; i < count; ++i) {
      Table t;
      BANDSLIM_RETURN_IF_ERROR(DecodeMeta(ByteSpan(stream), &offset, &t.meta));
      levels_[l].push_back(std::move(t));
    }
  }
  mem_.Clear();
  return cookie;
}

Result<std::unique_ptr<LsmTree::Iterator>> LsmTree::NewIterator() {
  // Snapshot merge: the MemTable (newest), then L0 newest first, then one
  // age per deeper level (its tables are disjoint).
  auto mem_run = std::make_shared<std::vector<SSTableEntry>>();
  mem_run->reserve(mem_.entry_count());
  for (auto it = mem_.Begin(); it.Valid(); it.Next()) {
    mem_run->push_back({it.key(), it.ref()});
  }
  std::vector<MergeInput> inputs = {{std::move(mem_run), 0}};
  std::uint32_t age = 0;
  for (auto it = levels_[0].rbegin(); it != levels_[0].rend(); ++it) {
    BANDSLIM_RETURN_IF_ERROR(Load(*it, ++age, &inputs));
  }
  for (std::size_t level = 1; level < levels_.size(); ++level) {
    ++age;
    for (Table& t : levels_[level]) {
      BANDSLIM_RETURN_IF_ERROR(Load(t, age, &inputs));
    }
  }
  auto iter = std::unique_ptr<Iterator>(new Iterator());
  BANDSLIM_RETURN_IF_ERROR(
      MergeRuns(inputs, /*drop_tombstones=*/true, [&](const SSTableEntry& e) {
        iter->entries_.push_back(e);
        return Status::Ok();
      }));
  return iter;
}

void LsmTree::Iterator::Seek(const std::string& target) {
  pos_ = static_cast<std::size_t>(
      std::lower_bound(entries_.begin(), entries_.end(), target,
                       [](const SSTableEntry& e, const std::string& k) {
                         return e.key < k;
                       }) -
      entries_.begin());
}

Status LsmTree::ForEachLive(
    const std::function<void(const std::string&, const ValueRef&)>& fn) {
  auto iter = NewIterator();
  if (!iter.ok()) return iter.status();
  for (auto& it = *iter.value(); it.Valid(); it.Next()) {
    fn(it.key(), it.ref());
  }
  return Status::Ok();
}

}  // namespace bandslim::lsm
