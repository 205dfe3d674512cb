// SSTable: an immutable sorted run of (key -> vLog reference) entries,
// serialized across 16 KiB logical NAND pages through the FTL's LSM stream.
// With key-value separation the tables hold only references, so compaction
// never rewrites values (Section 2.1).
//
// On-NAND format is page-aligned (PinK-style): every 16 KiB page is
// self-contained, so a point lookup reads exactly one page. The table meta
// (kept in device DRAM and in the manifest) carries one fence key per page.
//
//   per page: [u32 magic][u32 entry_count]
//             entry*: [u8 key_len][key][u64 vlog_addr][u32 vsize][u8 flags]
//             [zero padding to 16 KiB]
//
// In DRAM an entry is a 40-byte POD (an InlineKey and its ValueRef), so
// the writer, the merge and the decoded table/page caches copy entries
// without touching the heap. A table's bloom filter is built on first use
// (EnsureFilter), not when the table is written: most tables are compacted
// away before a lookup or a checkpoint needs their filter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ftl/ftl.h"
#include "lsm/bloom.h"
#include "lsm/memtable.h"

namespace bandslim::lsm {

struct SSTableEntry {
  InlineKey key;
  ValueRef ref;
};
static_assert(std::is_trivially_copyable_v<SSTableEntry> &&
              sizeof(SSTableEntry) == 40);

struct SSTableMeta {
  std::uint64_t id = 0;
  std::uint64_t first_lpn = 0;
  std::uint32_t page_count = 0;
  std::uint32_t entry_count = 0;
  std::uint64_t encoded_bytes = 0;  // Serialized size (level-sizing metric).
  std::string min_key;
  std::string max_key;
  // DRAM-resident key filter: GETs for absent keys skip the table load.
  // Empty until EnsureFilter() builds it, or decoded from the manifest.
  BloomFilter bloom;
  // First key of each page: a point lookup binary-searches these and reads
  // exactly one page.
  std::vector<std::string> fence_keys;

  bool Overlaps(const std::string& lo, const std::string& hi) const {
    return !(max_key < lo || hi < min_key);
  }

  // Index of the unique page that may hold `key`, or -1 when key < min_key.
  int PageForKey(std::string_view key) const;
};

inline constexpr std::uint32_t kSSTableMagic = 0x42534C4D;  // "BSLM"

// Streams sorted, unique-key entries into one SSTable starting at
// `first_lpn` — the only code that programs SSTable pages. Add() programs
// the current page (one NAND program) as soon as the next entry does not
// fit; Finish() programs the last page. The meta it returns has no filter
// yet: EnsureFilter() builds it from entries() when first needed.
class TableWriter {
 public:
  // `max_entries` bounds the entries the caller will add, when it knows a
  // bound in advance: entries() reserves that many.
  TableWriter(ftl::PageFtl* ftl, std::uint64_t id, std::uint64_t first_lpn,
              std::size_t max_entries = 0);

  Status Add(const SSTableEntry& entry);
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
  Bytes page_;  // One page buffer; page_used_ bytes of it are encoded.
  std::size_t page_used_ = 0;
  std::uint32_t in_page_ = 0;
};

// Builds `meta`'s bloom filter from the table's entries unless it already
// has one (a table restored from the manifest keeps the decoded filter).
// The bits equal those of a filter built at write time.
void EnsureFilter(SSTableMeta* meta, const std::vector<SSTableEntry>& entries);

// Reads a table back, charging one NAND read per page.
Result<std::vector<SSTableEntry>> ReadSSTable(ftl::PageFtl* ftl,
                                              const SSTableMeta& meta);

// Reads and decodes one page of a table (one NAND read).
Result<std::vector<SSTableEntry>> ReadSSTablePage(ftl::PageFtl* ftl,
                                                  const SSTableMeta& meta,
                                                  std::uint32_t page_index);

// Flat (de)serialization of one entry. Decoding rejects a key length of 0
// or above kMaxKeySize as Corruption.
void EncodeEntry(Bytes* out, const SSTableEntry& entry);
Status DecodeEntry(ByteSpan data, std::size_t* offset, SSTableEntry* out);

// Serialized size of one entry (key length byte + key + addr + size + flag).
inline std::uint64_t EncodedEntrySize(const SSTableEntry& e) {
  return 1 + e.key.size() + 8 + 4 + 1;
}
// The smallest EncodedEntrySize(), of a 1-byte key.
inline constexpr std::uint64_t kMinEncodedEntrySize = 1 + 1 + 8 + 4 + 1;

// Little-endian integer helpers used across LSM serialization.
void PutU32(Bytes* out, std::uint32_t v);
void PutU64(Bytes* out, std::uint64_t v);
Status GetU32(ByteSpan data, std::size_t* offset, std::uint32_t* v);
Status GetU64(ByteSpan data, std::size_t* offset, std::uint64_t* v);
void PutLengthPrefixed(Bytes* out, std::string_view s);
Status GetLengthPrefixed(ByteSpan data, std::size_t* offset, std::string* s);

}  // namespace bandslim::lsm
