#include "lsm/sstable.h"

#include <algorithm>
#include <cstring>

namespace bandslim::lsm {

void PutU32(Bytes* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void PutU64(Bytes* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

Status GetU32(ByteSpan data, std::size_t* offset, std::uint32_t* v) {
  if (*offset + 4 > data.size()) return Status::Corruption("truncated u32");
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(data[*offset + static_cast<std::size_t>(i)]) << (8 * i);
  }
  *offset += 4;
  return Status::Ok();
}

Status GetU64(ByteSpan data, std::size_t* offset, std::uint64_t* v) {
  if (*offset + 8 > data.size()) return Status::Corruption("truncated u64");
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(data[*offset + static_cast<std::size_t>(i)]) << (8 * i);
  }
  *offset += 8;
  return Status::Ok();
}

void PutLengthPrefixed(Bytes* out, const std::string& s) {
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
  PutLengthPrefixed(out, entry.key);
  PutU64(out, entry.ref.addr);
  PutU32(out, entry.ref.size);
  out->push_back(entry.ref.tombstone ? 1 : 0);
}

Status DecodeEntry(ByteSpan data, std::size_t* offset, SSTableEntry* out) {
  BANDSLIM_RETURN_IF_ERROR(GetLengthPrefixed(data, offset, &out->key));
  BANDSLIM_RETURN_IF_ERROR(GetU64(data, offset, &out->ref.addr));
  BANDSLIM_RETURN_IF_ERROR(GetU32(data, offset, &out->ref.size));
  if (*offset >= data.size()) return Status::Corruption("truncated flags");
  out->ref.tombstone = data[*offset] != 0;
  ++*offset;
  return Status::Ok();
}

int SSTableMeta::PageForKey(const std::string& key) const {
  // Last fence key <= key.
  auto it = std::upper_bound(fence_keys.begin(), fence_keys.end(), key);
  if (it == fence_keys.begin()) return -1;  // key < min_key.
  return static_cast<int>(it - fence_keys.begin()) - 1;
}

TableWriter::TableWriter(ftl::PageFtl* ftl, std::uint64_t id,
                         std::uint64_t first_lpn)
    : ftl_(ftl) {
  meta_.id = id;
  meta_.first_lpn = first_lpn;
}

Status TableWriter::Add(SSTableEntry entry) {
  const std::uint64_t size = EncodedEntrySize(entry);
  if (in_page_ > 0 && page_.size() + size > kNandPageSize) {
    BANDSLIM_RETURN_IF_ERROR(ProgramPage());
  }
  if (in_page_ == 0) {
    PutU32(&page_, kSSTableMagic);
    // Entry count, patched on program (u32 keeps the codec shared).
    PutU32(&page_, 0);
    meta_.fence_keys.push_back(entry.key);
  }
  EncodeEntry(&page_, entry);
  ++in_page_;
  meta_.encoded_bytes += size;
  entries_.push_back(std::move(entry));
  return Status::Ok();
}

Status TableWriter::ProgramPage() {
  for (int b = 0; b < 4; ++b) {
    page_[4 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(in_page_ >> (8 * b));
  }
  // SSTable pages are always retained: compaction must read them back.
  BANDSLIM_RETURN_IF_ERROR(ftl_->Write(meta_.first_lpn + meta_.page_count,
                                       ByteSpan(page_), ftl::Stream::kLsm,
                                       /*retain=*/true));
  ++meta_.page_count;
  page_.clear();
  in_page_ = 0;
  return Status::Ok();
}

Result<SSTableMeta> TableWriter::Finish() {
  if (entries_.empty()) return Status::InvalidArgument("empty SSTable");
  BANDSLIM_RETURN_IF_ERROR(ProgramPage());
  meta_.entry_count = static_cast<std::uint32_t>(entries_.size());
  meta_.min_key = entries_.front().key;
  meta_.max_key = entries_.back().key;
  meta_.bloom = BloomFilter(entries_.size());
  for (const SSTableEntry& e : entries_) meta_.bloom.Add(e.key);
  return std::move(meta_);
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
    for (SSTableEntry& e : page.value()) entries.push_back(std::move(e));
  }
  if (entries.size() != meta.entry_count) {
    return Status::Corruption("entry count mismatch");
  }
  return entries;
}

}  // namespace bandslim::lsm
