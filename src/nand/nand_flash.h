// NAND flash array model. Enforces the physical rules that make the FTL
// necessary: pages program in whole-page units, a page cannot be
// reprogrammed without erasing its block, and erases operate on blocks.
// Program/read/erase latencies come from the cost model; per-operation
// counters feed the paper's NAND I/O figures (Figs 4, 11, 12c).
//
// Page state lives in one record per block: the first program after an
// erase creates it, a successful Erase drops it, so an erased block costs
// one null pointer and the array's fixed state is per block, not per page.
//
// Payload retention: callers may program a page with `retain_data = false`,
// in which case only the page state is tracked and reads return zeros.
// Benches use this to sweep millions of multi-KiB values without
// materializing gigabytes of RAM; tests retain everything.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "nand/geometry.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "stats/metrics.h"
#include "trace/trace.h"

namespace bandslim::nand {

enum class PageState : std::uint8_t { kErased = 0, kProgrammed = 1 };

class NandFlash {
 public:
  NandFlash(const NandGeometry& geometry, sim::VirtualClock* clock,
            const sim::CostModel* cost, stats::MetricsRegistry* metrics,
            fault::FaultPlan* fault_plan = nullptr,
            trace::Tracer* tracer = nullptr);

  const NandGeometry& geometry() const { return geometry_; }

  // Programs a physical page. `data` must be at most one page; shorter data
  // is implicitly zero-padded (the buffer always hands over full pages).
  // An injected program failure still occupies the die for the attempt,
  // leaves the page unreadable, and returns Status::MediaError.
  [[nodiscard]] Status Program(std::uint64_t phys_page, ByteSpan data,
                               bool retain_data);

  // Reads a physical page into `out` (up to one page). Injected ECC-
  // correctable errors succeed after a read-retry latency penalty;
  // uncorrectable errors return Status::MediaError.
  [[nodiscard]] Status Read(std::uint64_t phys_page, MutByteSpan out);

  // Zero-copy read: identical checks, fault draws, and timing charges to
  // Read(), but hands back the retained payload instead of copying a page.
  // `*out` becomes nullptr for pages programmed with retain_data = false
  // (their bytes read as zeros). The shared_ptr stays valid even if the
  // block is later erased or reprogrammed — exactly the lifetime a caller-
  // side copy would have had — because programs always install a fresh
  // immutable buffer.
  [[nodiscard]] Status ReadView(std::uint64_t phys_page,
                                std::shared_ptr<const Bytes>* out);

  [[nodiscard]] Status Erase(std::uint64_t block);

  // Releases a page's retained payload once the FTL has made the page
  // garbage: no mapping reaches it, so no read will. A ReadView view taken
  // before keeps its bytes; the page stays programmed until its block is
  // erased.
  void DropPayload(std::uint64_t phys_page) {
    if (PageRecord* page = Find(phys_page)) page->data.reset();
  }

  PageState StateOf(std::uint64_t phys_page) const {
    const PageRecord* page = Find(phys_page);
    return page != nullptr && page->programmed ? PageState::kProgrammed
                                               : PageState::kErased;
  }

  // Whether a programmed page's payload was retained (see class comment).
  bool HasRetainedData(std::uint64_t phys_page) const {
    const PageRecord* page = Find(phys_page);
    return page != nullptr && page->data != nullptr;
  }

  std::uint64_t pages_programmed() const { return pages_programmed_; }
  std::uint64_t pages_read() const { return pages_read_; }
  std::uint64_t blocks_erased() const { return blocks_erased_; }
  // Injected-fault outcomes (zero without a fault plan).
  std::uint64_t program_failures() const { return program_failures_; }
  std::uint64_t read_uncorrectable() const { return read_uncorrectable_; }
  std::uint64_t ecc_corrections() const { return ecc_corrections_; }
  std::uint64_t erase_failures() const { return erase_failures_; }
  std::uint32_t EraseCount(std::uint64_t block) const {
    return erase_counts_[block];
  }

  // Die (channel/way) that services a block: blocks stripe across dies.
  std::uint64_t DieOf(std::uint64_t block) const {
    return block % geometry_.dies();
  }
  // Channel bus a die hangs off: consecutive dies alternate channels, so
  // consecutive blocks spread across both dies *and* channels.
  std::uint32_t ChannelOf(std::uint64_t die) const {
    return static_cast<std::uint32_t>(die % geometry_.channels);
  }
  // Parallel-dispatch introspection: reads that had to stall on an
  // in-flight program, and the virtual time lost waiting.
  std::uint64_t read_stalls() const { return read_stalls_; }
  sim::Nanoseconds read_stall_ns() const { return read_stall_ns_; }
  // Issuers stalled by a full per-die command queue (backpressure), and the
  // virtual time lost waiting for a slot.
  std::uint64_t die_queue_stalls() const { return die_queue_stalls_; }
  sim::Nanoseconds die_queue_stall_ns() const { return die_queue_stall_ns_; }
  // When the given resource finishes its currently booked work.
  sim::Nanoseconds die_free_at(std::uint64_t die) const {
    return die_free_at_[die];
  }
  sim::Nanoseconds channel_free_at(std::uint32_t channel) const {
    return channel_free_at_[channel];
  }
  // Cumulative busy time booked on a resource over the device's lifetime
  // (program/read/erase occupancy on dies, transfer occupancy on channel
  // buses; failed attempts occupy the hardware and count too). The telemetry
  // sampler differences these into per-interval utilization.
  sim::Nanoseconds die_busy_ns(std::uint64_t die) const {
    return die_busy_ns_[die];
  }
  sim::Nanoseconds channel_busy_ns(std::uint32_t channel) const {
    return channel_busy_ns_[channel];
  }

 private:
  struct PageRecord {
    // Retained payload: immutable once installed (a reprogram after an
    // erase installs a fresh buffer), so ReadView can hand out references.
    std::shared_ptr<const Bytes> data;
    // When an in-flight async program lands; the first read uses it up.
    sim::Nanoseconds ready_at = 0;
    bool programmed = false;
    bool failed = false;  // Unreadable until the block is erased.
  };

  // The page's record, or null while its block is erased.
  PageRecord* Find(std::uint64_t phys_page) const {
    const auto& block = blocks_[geometry_.BlockOf(phys_page)];
    return block ? &block[geometry_.PageInBlock(phys_page)] : nullptr;
  }

  // Blocks until the die has a free command-queue slot (parallel dispatch;
  // models the bounded per-die queue in the flash controller).
  void WaitForDieSlot(std::uint64_t die);
  // Shared body of Read/ReadView: all checks, fault draws, stalls, and
  // timing. `*fetched` turns true once the media was actually sensed (the
  // point where the copying read would have filled its buffer).
  Status ReadImpl(std::uint64_t phys_page, std::size_t bytes,
                  std::shared_ptr<const Bytes>* payload, bool* fetched);
  // Books the timing of one program attempt (successful or failed — the die
  // is busy either way) and records when the page lands.
  void BookProgramTiming(std::uint64_t phys_page, PageRecord* page);
  bool PowerLost() const {
    return fault_plan_ != nullptr && fault_plan_->power_lost();
  }

  NandGeometry geometry_;
  sim::VirtualClock* clock_;
  const sim::CostModel* cost_;
  fault::FaultPlan* fault_plan_;  // Optional; null = perfect media.
  trace::Tracer* tracer_;         // Optional; null = untraced.

  // One entry per block: its page records (null while erased), and wear.
  std::vector<std::unique_ptr<PageRecord[]>> blocks_;
  std::vector<std::uint32_t> erase_counts_;

  // Parallel dispatch: per-resource busy-until timelines (absolute virtual
  // time) and per-die pending-completion queues (backpressure bound).
  std::vector<sim::Nanoseconds> die_free_at_;
  std::vector<sim::Nanoseconds> channel_free_at_;
  std::vector<sim::Nanoseconds> die_busy_ns_;
  std::vector<sim::Nanoseconds> channel_busy_ns_;
  std::vector<std::deque<sim::Nanoseconds>> die_pending_;

  std::uint64_t pages_programmed_ = 0;
  std::uint64_t pages_read_ = 0;
  std::uint64_t blocks_erased_ = 0;
  std::uint64_t read_stalls_ = 0;
  sim::Nanoseconds read_stall_ns_ = 0;
  std::uint64_t die_queue_stalls_ = 0;
  sim::Nanoseconds die_queue_stall_ns_ = 0;
  std::uint64_t program_failures_ = 0;
  std::uint64_t read_uncorrectable_ = 0;
  std::uint64_t ecc_corrections_ = 0;
  std::uint64_t erase_failures_ = 0;

  stats::Counter* programs_;
  stats::Counter* reads_;
  stats::Counter* erases_;
  stats::Counter* program_failures_counter_;
  stats::Counter* ecc_corrections_counter_;
};

}  // namespace bandslim::nand
