// Value-typed observation structs shared by every KvStore topology: the
// counter block the paper's figures report (KvSsdStats) and the one-call
// structural snapshot of a single assembled device (DeviceSnapshot). They
// live apart from kvssd.h so the abstract KvStore interface (kv_store.h)
// can speak in these types without depending on the concrete device.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace bandslim {

// Counter snapshot covering the quantities the paper's figures report.
struct KvSsdStats {
  sim::Nanoseconds elapsed_ns = 0;
  std::uint64_t commands_submitted = 0;
  // PCIe (Figures 3, 8, 9, 10c, 10d).
  std::uint64_t pcie_h2d_bytes = 0;
  std::uint64_t pcie_d2h_bytes = 0;
  std::uint64_t mmio_bytes = 0;
  std::uint64_t dma_h2d_bytes = 0;
  // NAND (Figures 4, 11, 12c).
  std::uint64_t nand_pages_programmed = 0;
  std::uint64_t nand_pages_read = 0;
  std::uint64_t nand_blocks_erased = 0;
  std::uint64_t vlog_pages_flushed = 0;
  std::uint64_t lsm_pages_programmed = 0;
  std::uint64_t gc_pages_programmed = 0;
  // Device packing (Figure 12d).
  std::uint64_t device_memcpy_bytes = 0;
  std::uint64_t buffer_wasted_bytes = 0;
  std::uint64_t dlt_forced_evictions = 0;
  // KVS-level.
  std::uint64_t values_written = 0;
  std::uint64_t value_bytes_written = 0;
  std::uint64_t lsm_compactions = 0;
  std::uint64_t memtable_flushes = 0;
  // Fault handling (all zero on a perfect device).
  std::uint64_t nvme_timeouts = 0;
  std::uint64_t nvme_retries = 0;
  std::uint64_t nand_program_failures = 0;
  std::uint64_t ecc_corrections = 0;
  std::uint64_t bad_block_remaps = 0;
  std::uint64_t recovery_runs = 0;
  std::uint64_t recovery_replayed_refs = 0;
};

// Every counter of KvSsdStats except elapsed_ns, in declaration order: the
// one field list that AccumulateStats and workload::StatsDelta walk, so a
// new counter cannot be summed by one and dropped by the other. The
// static_assert fails the build when a field is added to the struct but
// not to this list.
inline constexpr std::uint64_t KvSsdStats::*kStatsCounters[] = {
    &KvSsdStats::commands_submitted,    &KvSsdStats::pcie_h2d_bytes,
    &KvSsdStats::pcie_d2h_bytes,        &KvSsdStats::mmio_bytes,
    &KvSsdStats::dma_h2d_bytes,         &KvSsdStats::nand_pages_programmed,
    &KvSsdStats::nand_pages_read,       &KvSsdStats::nand_blocks_erased,
    &KvSsdStats::vlog_pages_flushed,    &KvSsdStats::lsm_pages_programmed,
    &KvSsdStats::gc_pages_programmed,   &KvSsdStats::device_memcpy_bytes,
    &KvSsdStats::buffer_wasted_bytes,   &KvSsdStats::dlt_forced_evictions,
    &KvSsdStats::values_written,        &KvSsdStats::value_bytes_written,
    &KvSsdStats::lsm_compactions,       &KvSsdStats::memtable_flushes,
    &KvSsdStats::nvme_timeouts,         &KvSsdStats::nvme_retries,
    &KvSsdStats::nand_program_failures, &KvSsdStats::ecc_corrections,
    &KvSsdStats::bad_block_remaps,      &KvSsdStats::recovery_runs,
    &KvSsdStats::recovery_replayed_refs,
};
static_assert(sizeof(KvSsdStats) ==
                  (std::size(kStatsCounters) + 1) * sizeof(std::uint64_t),
              "KvSsdStats field missing from kStatsCounters");

// Adds every counter of `from` into `into`, EXCEPT elapsed_ns: virtual
// times of independent devices do not sum — the caller owns the clock
// semantics (a cluster reports its own router clock). Used to aggregate a
// shard fleet into one KvSsdStats.
inline void AccumulateStats(KvSsdStats* into, const KvSsdStats& from) {
  for (const auto counter : kStatsCounters) into->*counter += from.*counter;
}

// Read-only, value-typed snapshot of one assembled device: the stats block
// plus the live structural state a test or bench may want to assert on.
// Produced by KvSsd::InspectDevice(); holds no pointers into the device.
struct DeviceSnapshot {
  KvSsdStats stats;

  struct QueueInfo {
    std::uint16_t queue_id = 0;
    std::uint16_t depth = 0;        // Configured SQ/CQ depth.
    std::uint64_t submitted = 0;    // Commands ever submitted on this queue.
    std::uint64_t inflight = 0;     // Currently outstanding (unreaped).
  };
  std::vector<QueueInfo> queues;

  // NAND page buffer / vLog tail window (byte addresses into the vLog).
  std::uint64_t buffer_window_base = 0;   // First still-resident byte.
  std::uint64_t vlog_tail = 0;            // Next append address (buffer WP).
  std::uint64_t buffer_dma_frontier = 0;  // Page-aligned DMA high-water mark.
  std::uint64_t buffer_resident_bytes = 0;  // vlog_tail - buffer_window_base.

  // FTL block accounting.
  std::uint64_t ftl_mapped_pages = 0;
  std::uint64_t ftl_free_blocks = 0;
  std::uint64_t ftl_reserve_blocks = 0;  // Spare blocks left for remapping.
  std::uint64_t ftl_bad_blocks = 0;

  // LSM / compaction state.
  std::uint64_t lsm_memtable_entries = 0;
  std::uint64_t lsm_memtable_bytes = 0;
  std::uint64_t lsm_pending_trim_tables = 0;  // Dropped, awaiting checkpoint.
  std::uint64_t lsm_compaction_debt_bytes = 0;
  struct LevelInfo {
    std::uint64_t tables = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<LevelInfo> lsm_levels;  // Index 0 = L0 runs.

  // Full registry dump (every named counter, sorted by name).
  std::map<std::string, std::uint64_t> counters;

  // Watchdog alert state, one entry per configured rule (empty when
  // telemetry is disabled or no rules are set).
  struct AlertInfo {
    std::string rule;
    std::uint64_t fired = 0;     // Edge-triggered fire count.
    std::uint64_t cleared = 0;   // Deassert (recovery) edge count.
    bool active = false;         // Condition currently holding.
    std::uint64_t last_value = 0;
    sim::Nanoseconds last_fire_ns = 0;
  };
  std::vector<AlertInfo> alerts;
  // Telemetry stream sizes (0 when disabled).
  std::uint64_t telemetry_samples = 0;
  std::uint64_t telemetry_events = 0;
};

}  // namespace bandslim
