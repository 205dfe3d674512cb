// Page-mapped Flash Translation Layer. The vLog and the LSM-tree address
// *logical* NAND pages (Section 2.1: "it fills logical NAND pages which are
// mapped to physical NAND pages by the FTL"); this FTL provides the mapping
// with out-of-place updates, per-stream active blocks (vLog appends, LSM
// SSTables and GC relocations go to separate blocks), and greedy garbage
// collection over fully-programmed blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "nand/nand_flash.h"
#include "stats/metrics.h"
#include "telemetry/event_log.h"
#include "trace/trace.h"

namespace bandslim::ftl {

enum class Stream : int {
  kVlog = 0,  // Value-log page appends.
  kLsm = 1,   // SSTable / manifest pages.
  kGc = 2,    // Relocations during garbage collection.
};
inline constexpr int kNumStreams = 3;

struct FtlConfig {
  // GC starts when the free-block pool drops to this many blocks.
  std::uint32_t gc_low_watermark = 4;
  // Wear-aware victim selection: score = valid_pages + wear_weight *
  // (erase_count - min_erase_count). 0 = pure greedy; >0 spreads erases.
  double wear_weight = 0.0;
  // Fraction of blocks factory-marked bad (excluded from allocation).
  double bad_block_rate = 0.0;
  std::uint64_t bad_block_seed = 0xBADB10C;
  // Good blocks withheld from the free pool at init (highest-numbered
  // first). A block that grows bad at runtime is retired and replaced from
  // this reserve — classic bad-block remapping. 0 = no reserve; retirement
  // then shrinks usable capacity until allocation returns kOutOfSpace.
  std::uint32_t reserved_blocks = 0;
  // Re-allocation attempts after a program reports a media failure (each
  // attempt retires the failed block and lands on a fresh one).
  std::uint32_t max_program_retries = 4;
  // Geometry-aware dispatch: one allocation lane per die instead of one in
  // all. Each stream keeps an active block per lane and round-robins page
  // allocations across lanes, so consecutive logical page writes land on
  // different channels/ways and the parallel NAND scheduler
  // (CostModel::nand_async_program) can overlap them. Off by default: the
  // single-lane allocator matches the paper's firmware and keeps the figure
  // anchors bit-identical.
  bool stripe_across_dies = false;
};

class PageFtl {
 public:
  PageFtl(nand::NandFlash* nand, stats::MetricsRegistry* metrics,
          FtlConfig config = {}, trace::Tracer* tracer = nullptr,
          telemetry::EventLog* event_log = nullptr);

  // Writes one logical page (out-of-place; remaps if already mapped). A
  // program media failure retires the block — surviving co-located pages
  // are replayed onto fresh blocks byte-for-byte — and retries on a new
  // allocation up to FtlConfig::max_program_retries times.
  [[nodiscard]] Status Write(std::uint64_t lpn, ByteSpan data, Stream stream,
                             bool retain);

  [[nodiscard]] Status Read(std::uint64_t lpn, MutByteSpan out);

  // Zero-copy variant of Read: see NandFlash::ReadView. Same mapping
  // lookup, fault behaviour, and timing charges as Read.
  [[nodiscard]] Status ReadView(std::uint64_t lpn,
                                std::shared_ptr<const Bytes>* out);

  bool IsMapped(std::uint64_t lpn) const { return map_.contains(lpn); }

  // Drops the mapping; the physical page becomes garbage for GC.
  [[nodiscard]] Status Trim(std::uint64_t lpn);

  std::uint64_t free_blocks() const;
  std::uint64_t gc_relocated_pages() const { return gc_relocated_pages_; }
  std::uint64_t gc_runs() const { return gc_runs_; }
  std::uint64_t mapped_pages() const { return map_.size(); }
  std::uint64_t bad_blocks() const { return bad_block_count_; }
  bool IsBad(std::uint64_t block) const { return blocks_[block].bad; }
  // Fault-handling outcomes (zero on a perfect device).
  std::uint64_t program_failures() const { return program_failures_; }
  std::uint64_t bad_block_remaps() const { return bad_block_remaps_; }
  std::uint64_t erase_retirements() const { return erase_retirements_; }
  std::uint64_t reserve_remaining() const { return reserve_blocks_.size(); }

  // Grown bad block (fault injection): relocates any valid pages, then
  // permanently excludes the block, dropping it from the free pool or the
  // remap reserve. Rejected for stream-active blocks.
  [[nodiscard]] Status MarkBad(std::uint64_t block);

  // Paced background GC (closed-loop control): reclaims up to `max_blocks`
  // victims, stopping early once the free pool reaches `target_free`.
  // Opportunistic — "no reclaimable victim" is not an error here (the pool
  // simply holds no fully-garbage-enough block yet), unlike the foreground
  // allocation path where it means the device is truly full. Returns the
  // number of blocks actually reclaimed.
  Result<std::uint32_t> CollectBudgeted(std::uint32_t max_blocks,
                                        std::uint64_t target_free);

 private:
  static constexpr std::uint64_t kUnmapped = ~0ULL;

  // One physical block's state. `lpns` (ppn -> lpn per page, kUnmapped for
  // garbage) exists from when OpenActiveBlock opens the block until GC
  // erases it or retirement excludes it.
  struct BlockRecord {
    std::unique_ptr<std::uint64_t[]> lpns;
    std::uint32_t valid = 0;
    bool full = false;
    bool bad = false;
  };
  struct ActiveBlock {
    std::uint64_t block = kUnmapped;
    std::uint32_t next_page = 0;
  };
  // One allocation lane per die when striping, else a single lane: a free
  // stack popped lowest-block-first and each stream's active block.
  struct Lane {
    std::vector<std::uint64_t> free;
    ActiveBlock active[kNumStreams];
  };

  // Returns the next free physical page for `stream`, running GC if the
  // free pool is low. Fails with kOutOfSpace when GC cannot reclaim.
  Result<std::uint64_t> AllocatePage(Stream stream);
  // Refills `active` from the free pool (GC first for foreground streams),
  // preferring a block on `want_lane`.
  Status OpenActiveBlock(ActiveBlock* active, Stream stream,
                         std::uint64_t want_lane);
  std::vector<std::uint64_t>& FreeList(std::uint64_t block) {
    return lanes_[block % lanes_.size()].free;
  }
  Status MaybeCollect();
  Status CollectOneBlock();
  // Moves every valid page of `block` to the GC stream's active block.
  Status RelocateValidPages(std::uint64_t block);
  bool IsActive(std::uint64_t block) const;
  // Points `lpn` at `ppn`, invalidating the page it mapped before.
  void Map(std::uint64_t lpn, std::uint64_t ppn);
  // Makes `ppn` garbage and drops its retained payload.
  void Invalidate(std::uint64_t ppn);
  // Whether `ppn`'s reverse-map entry names `lpn` (checks the forward map).
  bool MapsTo(std::uint64_t lpn, std::uint64_t ppn) const;
  // Bad-block retirement: closes any stream pointer at `block`, relocates
  // its surviving valid pages (the packed-layout replay), excludes it, and
  // refills the free pool from the reserve when one is configured.
  Status RetireBlock(std::uint64_t block);

  nand::NandFlash* nand_;
  trace::Tracer* tracer_;              // Optional; null = untraced.
  telemetry::EventLog* event_log_;     // Optional; null = no event stream.
  FtlConfig config_;
  // Latched while the free pool sits below gc_low_watermark, so the event
  // log records one kWatermarkLow/kWatermarkCleared pair per excursion.
  bool below_watermark_ = false;

  std::unordered_map<std::uint64_t, std::uint64_t> map_;  // lpn -> ppn.
  std::vector<BlockRecord> blocks_;
  std::vector<Lane> lanes_;
  std::uint64_t lane_cursor_[kNumStreams] = {0, 0, 0};
  std::uint64_t bad_block_count_ = 0;
  std::vector<std::uint64_t> reserve_blocks_;  // Bad-block remap pool.

  std::uint64_t gc_relocated_pages_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t program_failures_ = 0;
  std::uint64_t bad_block_remaps_ = 0;
  std::uint64_t erase_retirements_ = 0;

  stats::Counter* stream_programs_[kNumStreams];
  stats::Counter* gc_relocations_;
  stats::Counter* remaps_counter_;
};

}  // namespace bandslim::ftl
