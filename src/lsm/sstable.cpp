#include "lsm/sstable.h"

#include <algorithm>
#include <cstring>

namespace bandslim::lsm {

namespace {

// An entry's bytes after its key: u64 vLog address, u32 size, u8 flags.
constexpr std::size_t kRefBytes = 8 + 4 + 1;

void StoreLe(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t LoadLe(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Writes `entry`'s EncodedEntrySize() bytes at `p`.
void EncodeEntryAt(std::uint8_t* p, const SSTableEntry& entry) {
  const std::string_view key = entry.key.view();
  *p++ = static_cast<std::uint8_t>(key.size());
  std::memcpy(p, key.data(), key.size());
  p += key.size();
  StoreLe(p, entry.ref.addr, 8);
  StoreLe(p + 8, entry.ref.size, 4);
  p[12] = entry.ref.tombstone ? 1 : 0;
}

}  // namespace

void PutU32(Bytes* out, std::uint32_t v) {
  out->resize(out->size() + 4);
  StoreLe(out->data() + out->size() - 4, v, 4);
}

void PutU64(Bytes* out, std::uint64_t v) {
  out->resize(out->size() + 8);
  StoreLe(out->data() + out->size() - 8, v, 8);
}

Status GetU32(ByteSpan data, std::size_t* offset, std::uint32_t* v) {
  if (*offset + 4 > data.size()) return Status::Corruption("truncated u32");
  *v = static_cast<std::uint32_t>(LoadLe(data.data() + *offset, 4));
  *offset += 4;
  return Status::Ok();
}

Status GetU64(ByteSpan data, std::size_t* offset, std::uint64_t* v) {
  if (*offset + 8 > data.size()) return Status::Corruption("truncated u64");
  *v = LoadLe(data.data() + *offset, 8);
  *offset += 8;
  return Status::Ok();
}

void PutLengthPrefixed(Bytes* out, std::string_view s) {
  out->push_back(static_cast<std::uint8_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

Status GetLengthPrefixed(ByteSpan data, std::size_t* offset, std::string* s) {
  if (*offset >= data.size()) return Status::Corruption("truncated length byte");
  const std::size_t len = data[*offset];
  ++*offset;
  if (*offset + len > data.size()) return Status::Corruption("truncated string");
  s->assign(reinterpret_cast<const char*>(data.data() + *offset), len);
  *offset += len;
  return Status::Ok();
}

void EncodeEntry(Bytes* out, const SSTableEntry& entry) {
  const std::size_t at = out->size();
  out->resize(at + EncodedEntrySize(entry));
  EncodeEntryAt(out->data() + at, entry);
}

Status DecodeEntry(ByteSpan data, std::size_t* offset, SSTableEntry* out) {
  if (*offset >= data.size()) return Status::Corruption("truncated length byte");
  const std::size_t len = data[*offset];
  if (len == 0 || len > kMaxKeySize) {
    return Status::Corruption("SSTable key length out of range");
  }
  const std::size_t start = *offset + 1;
  if (start + len + kRefBytes > data.size()) {
    return Status::Corruption("truncated SSTable entry");
  }
  const std::uint8_t* p = data.data() + start;
  out->key = std::string_view(reinterpret_cast<const char*>(p), len);
  p += len;
  out->ref.addr = LoadLe(p, 8);
  out->ref.size = static_cast<std::uint32_t>(LoadLe(p + 8, 4));
  out->ref.tombstone = p[12] != 0;
  *offset = start + len + kRefBytes;
  return Status::Ok();
}

int SSTableMeta::PageForKey(std::string_view key) const {
  // Last fence key <= key.
  auto it = std::upper_bound(fence_keys.begin(), fence_keys.end(), key);
  if (it == fence_keys.begin()) return -1;  // key < min_key.
  return static_cast<int>(it - fence_keys.begin()) - 1;
}

TableWriter::TableWriter(ftl::PageFtl* ftl, std::uint64_t id,
                         std::uint64_t first_lpn, std::size_t max_entries)
    : ftl_(ftl) {
  meta_.id = id;
  meta_.first_lpn = first_lpn;
  entries_.reserve(max_entries);
  page_.resize(kNandPageSize);
}

Status TableWriter::Add(const SSTableEntry& entry) {
  const std::uint64_t size = EncodedEntrySize(entry);
  if (in_page_ > 0 && page_used_ + size > kNandPageSize) {
    BANDSLIM_RETURN_IF_ERROR(ProgramPage());
  }
  if (in_page_ == 0) {
    StoreLe(page_.data(), kSSTableMagic, 4);
    // Entry count, patched on program (u32 keeps the codec shared).
    page_used_ = 8;
    meta_.fence_keys.emplace_back(entry.key.view());
  }
  EncodeEntryAt(page_.data() + page_used_, entry);
  page_used_ += size;
  ++in_page_;
  meta_.encoded_bytes += size;
  entries_.push_back(entry);
  return Status::Ok();
}

Status TableWriter::ProgramPage() {
  StoreLe(page_.data() + 4, in_page_, 4);
  // SSTable pages are always retained: compaction must read them back.
  BANDSLIM_RETURN_IF_ERROR(ftl_->Write(meta_.first_lpn + meta_.page_count,
                                       ByteSpan(page_.data(), page_used_),
                                       ftl::Stream::kLsm,
                                       /*retain=*/true));
  ++meta_.page_count;
  in_page_ = 0;
  return Status::Ok();
}

Result<SSTableMeta> TableWriter::Finish() {
  if (entries_.empty()) return Status::InvalidArgument("empty SSTable");
  BANDSLIM_RETURN_IF_ERROR(ProgramPage());
  meta_.entry_count = static_cast<std::uint32_t>(entries_.size());
  meta_.min_key = entries_.front().key.view();
  meta_.max_key = entries_.back().key.view();
  return std::move(meta_);
}

void EnsureFilter(SSTableMeta* meta, const std::vector<SSTableEntry>& entries) {
  if (!meta->bloom.empty()) return;
  meta->bloom = BloomFilter(entries.size());
  for (const SSTableEntry& e : entries) meta->bloom.Add(e.key.view());
}

namespace {

Result<std::vector<SSTableEntry>> DecodePage(ByteSpan page) {
  std::size_t offset = 0;
  std::uint32_t magic = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(page, &offset, &magic));
  if (magic != kSSTableMagic) return Status::Corruption("bad SSTable magic");
  std::uint32_t count = 0;
  BANDSLIM_RETURN_IF_ERROR(GetU32(page, &offset, &count));
  std::vector<SSTableEntry> entries(count);
  for (std::uint32_t e = 0; e < count; ++e) {
    BANDSLIM_RETURN_IF_ERROR(DecodeEntry(page, &offset, &entries[e]));
  }
  return entries;
}

}  // namespace

Result<std::vector<SSTableEntry>> ReadSSTablePage(ftl::PageFtl* ftl,
                                                  const SSTableMeta& meta,
                                                  std::uint32_t page_index) {
  if (page_index >= meta.page_count) {
    return Status::InvalidArgument("page index out of range");
  }
  Bytes page(kNandPageSize);
  BANDSLIM_RETURN_IF_ERROR(
      ftl->Read(meta.first_lpn + page_index, MutByteSpan(page)));
  return DecodePage(ByteSpan(page));
}

Result<std::vector<SSTableEntry>> ReadSSTable(ftl::PageFtl* ftl,
                                              const SSTableMeta& meta) {
  std::vector<SSTableEntry> entries;
  entries.reserve(meta.entry_count);
  for (std::uint32_t p = 0; p < meta.page_count; ++p) {
    auto page = ReadSSTablePage(ftl, meta, p);
    if (!page.ok()) return page.status();
    entries.insert(entries.end(), page.value().begin(), page.value().end());
  }
  if (entries.size() != meta.entry_count) {
    return Status::Corruption("entry count mismatch");
  }
  return entries;
}

}  // namespace bandslim::lsm
