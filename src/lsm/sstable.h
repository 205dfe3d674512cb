// SSTable: an immutable sorted run of (key -> vLog reference) entries,
// serialized across 16 KiB logical NAND pages through the FTL's LSM stream.
// With key-value separation the tables hold only references, so compaction
// never rewrites values (Section 2.1).
//
// On-NAND format is page-aligned (PinK-style): every 16 KiB page is
// self-contained, so a point lookup reads exactly one page. The table meta
// (kept in device DRAM and in the manifest) carries one fence key per page.
//
//   per page: [u32 magic][u16 entry_count]
//             entry*: [u8 key_len][key][u64 vlog_addr][u32 vsize][u8 flags]
//             [zero padding to 16 KiB]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ftl/ftl.h"
#include "lsm/bloom.h"
#include "lsm/memtable.h"

namespace bandslim::lsm {

struct SSTableEntry {
  std::string key;
  ValueRef ref;
};

struct SSTableMeta {
  std::uint64_t id = 0;
  std::uint64_t first_lpn = 0;
  std::uint32_t page_count = 0;
  std::uint32_t entry_count = 0;
  std::uint64_t encoded_bytes = 0;  // Serialized size (level-sizing metric).
  std::string min_key;
  std::string max_key;
  // DRAM-resident key filter: GETs for absent keys skip the table load.
  BloomFilter bloom;
  // First key of each page: a point lookup binary-searches these and reads
  // exactly one page.
  std::vector<std::string> fence_keys;

  bool Overlaps(const std::string& lo, const std::string& hi) const {
    return !(max_key < lo || hi < min_key);
  }

  // Index of the unique page that may hold `key`, or -1 when key < min_key.
  int PageForKey(const std::string& key) const;
};

inline constexpr std::uint32_t kSSTableMagic = 0x42534C4D;  // "BSLM"

// Streams sorted, unique-key entries into one SSTable starting at
// `first_lpn` — the only code that programs SSTable pages. Add() programs
// the current page (one NAND program) as soon as the next entry does not
// fit; Finish() programs the last page and builds the bloom filter.
class TableWriter {
 public:
  TableWriter(ftl::PageFtl* ftl, std::uint64_t id, std::uint64_t first_lpn);

  Status Add(SSTableEntry entry);
  // Fails on an empty table. The writer is spent afterwards, apart from
  // entries().
  Result<SSTableMeta> Finish();

  // Serialized size so far (the table-cut metric).
  std::uint64_t encoded_bytes() const { return meta_.encoded_bytes; }
  // Every entry added, in order: the finished table's DRAM cache.
  std::vector<SSTableEntry>& entries() { return entries_; }

 private:
  Status ProgramPage();

  ftl::PageFtl* ftl_;
  SSTableMeta meta_;
  std::vector<SSTableEntry> entries_;
  Bytes page_;
  std::uint32_t in_page_ = 0;
};

// Reads a table back, charging one NAND read per page.
Result<std::vector<SSTableEntry>> ReadSSTable(ftl::PageFtl* ftl,
                                              const SSTableMeta& meta);

// Reads and decodes one page of a table (one NAND read).
Result<std::vector<SSTableEntry>> ReadSSTablePage(ftl::PageFtl* ftl,
                                                  const SSTableMeta& meta,
                                                  std::uint32_t page_index);

// Flat (de)serialization of the entry stream, shared with the manifest.
void EncodeEntry(Bytes* out, const SSTableEntry& entry);
Status DecodeEntry(ByteSpan data, std::size_t* offset, SSTableEntry* out);

// Serialized size of one entry (key length byte + key + addr + size + flag).
inline std::uint64_t EncodedEntrySize(const SSTableEntry& e) {
  return 1 + e.key.size() + 8 + 4 + 1;
}

// Little-endian integer helpers used across LSM serialization.
void PutU32(Bytes* out, std::uint32_t v);
void PutU64(Bytes* out, std::uint64_t v);
Status GetU32(ByteSpan data, std::size_t* offset, std::uint32_t* v);
Status GetU64(ByteSpan data, std::size_t* offset, std::uint64_t* v);
void PutLengthPrefixed(Bytes* out, const std::string& s);
Status GetLengthPrefixed(ByteSpan data, std::size_t* offset, std::string* s);

}  // namespace bandslim::lsm
