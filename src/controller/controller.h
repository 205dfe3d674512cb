// BandSlim Key-Value Controller (Section 3.1): the device-side firmware.
// It fetches NVMe key-value commands, reassembles piggybacked value
// fragments (FIFO per queue, Section 3.3.1), triggers page-unit DMA for
// PRP-described payloads, packs values into the NAND page buffer under the
// configured policy, and maintains the in-device LSM-tree with fine-grained
// value addressing over the vLog.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "buffer/page_buffer.h"
#include "common/status.h"
#include "dma/dma_engine.h"
#include "lsm/lsm_tree.h"
#include "nvme/transport.h"
#include "vlog/vlog.h"

namespace bandslim::controller {

struct ControllerConfig {
  // When false, the persistence path (vLog append, LSM insert, NAND I/O) is
  // skipped entirely — the paper disables NAND I/O to isolate transfer
  // effects (Section 4.2). Reads are unsupported in this mode.
  bool nand_io_enabled = true;
  // vLog GC segment length, in logical NAND pages.
  std::uint64_t gc_segment_pages = 64;
  // Cost-benefit victim selection: how many candidate segments (starting at
  // the cleaning cursor) to score by dead-byte ratio before collecting.
  std::uint64_t gc_scan_segments = 8;
};

class KvController : public nvme::DeviceHandler {
 public:
  KvController(sim::VirtualClock* clock, const sim::CostModel* cost,
               stats::MetricsRegistry* metrics, dma::DmaEngine* dma,
               vlog::VLog* vlog, lsm::LsmTree* lsm, ControllerConfig config,
               trace::Tracer* tracer = nullptr);

  nvme::CqEntry Handle(const nvme::NvmeCommand& cmd,
                       std::uint16_t queue_id) override;

  // Relocates live values out of the oldest flushed vLog segment and trims
  // it (key-value-separated log cleaning; extension beyond the paper).
  // Returns the number of values relocated.
  Result<std::uint64_t> CollectVlogSegment();

  std::uint64_t values_written() const { return values_written_; }
  std::uint64_t value_bytes_written() const { return value_bytes_written_; }
  std::uint64_t vlog_gc_runs() const { return vlog_gc_runs_; }

 private:
  // One reassembly slot per submission queue, reused across operations: the
  // key lives in a fixed array and `staged` retains its capacity, so the
  // steady-state piggyback PUT path never touches the allocator.
  struct PendingWrite {
    std::array<std::uint8_t, kMaxKeySize> key{};
    std::uint8_t key_len = 0;
    bool active = false;
    std::uint32_t value_size = 0;
    // Piggyback reassembly staging (holds only the piggybacked bytes).
    Bytes staged;
    std::uint64_t piggy_received = 0;
    // Hybrid transfers: the landed DMA extent awaiting trailing bytes.
    bool has_dma = false;
    buffer::NandPageBuffer::DmaReservation reservation;
  };
  // The queue's reassembly slot, lazily created on first use.
  PendingWrite& Slot(std::uint16_t queue_id) {
    if (pending_.size() <= queue_id) pending_.resize(queue_id + 1u);
    return pending_[queue_id];
  }
  // Reusable page-aligned staging for read responses; returns a span of
  // exactly `n` bytes. Callers must write every byte they DMA out — the
  // buffer is recycled across commands and is NOT re-zeroed.
  MutByteSpan Bounce(std::size_t n) {
    if (bounce_scratch_.size() < n) bounce_scratch_.resize(n);
    return {bounce_scratch_.data(), n};
  }

  nvme::CqEntry HandleWrite(const nvme::NvmeCommand& cmd,
                            std::uint16_t queue_id);
  nvme::CqEntry HandleBulkWrite(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleBulkRead(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleBulkDelete(const nvme::NvmeCommand& cmd);
  // Checks a bulk command's payload size against its PRP pages and DMAs
  // the payload into bulk_staging_; returns the failure status or
  // kSuccess.
  nvme::CqStatus StageBulk(const nvme::NvmeCommand& cmd);
  // Decodes the [u8 klen][key]* request shared by bulk read/delete from
  // bulk_staging_ into bulk_keys_; false = malformed payload. The keys view
  // bulk_staging_, which nothing writes until the next bulk command.
  bool DecodeKeyBatch(std::uint32_t payload_size);
  nvme::CqEntry HandleTransfer(const nvme::NvmeCommand& cmd,
                               std::uint16_t queue_id);
  nvme::CqEntry HandleRead(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleDelete(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleExists(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleIterSeek(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleIterNextBatch(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleIterClose(const nvme::NvmeCommand& cmd);
  nvme::CqEntry HandleFlush();

  // Completes a reassembled/landed write: pack, index, account. Operates on
  // the slot in place (the slot's buffers are recycled for the next op).
  nvme::CqEntry FinishWrite(PendingWrite& op);
  // Fails a command in a fragment stream: aborts the queue's in-progress
  // reassembly (the stream is corrupt past this point).
  nvme::CqEntry Fail(nvme::CqStatus status, std::uint16_t queue_id);
  // Fails a self-contained command; other queues' pending reassembly state
  // is untouched (a failed read on queue 1 must not abort queue 0's write).
  nvme::CqEntry FailOp(nvme::CqStatus status);

  std::uint64_t VlogTailCookie() const;

  sim::VirtualClock* clock_;
  trace::Tracer* tracer_;  // Optional; null = untraced.
  const sim::CostModel* cost_;
  dma::DmaEngine* dma_;
  vlog::VLog* vlog_;
  lsm::LsmTree* lsm_;
  ControllerConfig config_;

  // Fragment reassembly state, indexed by submission queue: the piggyback
  // stream is FIFO within a queue (Section 3.3.1), and queues interleave.
  std::vector<PendingWrite> pending_;
  Bytes nand_off_scratch_;  // DMA landing zone when persistence is disabled.
  Bytes bulk_staging_;      // Unpack area for host-side-batched payloads.
  Bytes bounce_scratch_;    // Read-response staging (see Bounce()).
  // Bulk read/delete scratch, reused across commands: the decoded keys and
  // the bulk read's index lookups.
  std::vector<std::string_view> bulk_keys_;
  std::vector<Result<lsm::ValueRef>> bulk_refs_;

  std::unordered_map<std::uint32_t, std::unique_ptr<lsm::LsmTree::Iterator>>
      iterators_;
  std::uint32_t next_iterator_id_ = 1;

  std::uint64_t vlog_gc_cursor_lpn_ = 0;
  std::set<std::uint64_t> collected_segments_;  // Starts already cleaned.
  // Cleaned segments whose physical trim waits for the next checkpoint —
  // the last durable manifest may still point into them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending_vlog_trims_;
  std::uint64_t vlog_gc_runs_ = 0;

  std::uint64_t values_written_ = 0;
  std::uint64_t value_bytes_written_ = 0;

  stats::Counter* writes_counter_;
  stats::Counter* write_bytes_counter_;
  stats::Counter* reads_counter_;
  stats::Counter* read_memcpy_bytes_;
  stats::Counter* gc_relocated_values_;
};

}  // namespace bandslim::controller
