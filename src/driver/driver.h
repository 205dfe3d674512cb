// BandSlim Key-Value Driver (Sections 3.1-3.2): the host-side half. It
// turns PUT/GET/DELETE/SEEK/NEXT into NVMe key-value commands and picks a
// value-transfer method per request:
//   * kPrp       — the baseline: the value rides in host memory pages named
//                  by a PRP list; whole 4 KiB pages DMA to the device.
//   * kPiggyback — the value is inlined into the write command (35 B) plus
//                  trailing transfer commands (56 B each).
//   * kHybrid    — floor(size/4K) pages go via page-unit DMA, the sub-page
//                  remainder rides piggybacked transfer commands.
//   * kAdaptive  — threshold-reactive choice among the three (Section 3.2):
//                  piggyback for size <= alpha*threshold1; hybrid when the
//                  sub-page remainder <= beta*threshold2; PRP otherwise.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "nvme/host_memory.h"
#include "nvme/transport.h"
#include "trace/trace.h"

namespace bandslim::driver {

enum class TransferMethod { kPrp, kPiggyback, kHybrid, kAdaptive };

const char* MethodName(TransferMethod method);

struct DriverConfig {
  TransferMethod method = TransferMethod::kAdaptive;
  std::uint32_t threshold1 = 128;  // Piggyback/DMA crossover (bytes).
  std::uint32_t threshold2 = 56;   // Hybrid-remainder crossover (bytes).
  double alpha = 1.0;              // >1 favors piggyback (traffic priority).
  double beta = 1.0;               // >1 favors hybrid (traffic priority).
  // Extension: submit all commands of one value as a single pipelined batch
  // (one doorbell) instead of the paper's serialized one-at-a-time
  // passthrough. Moves the piggyback/DMA crossover up (see
  // bench/abl_pipelining).
  bool pipelined_submission = false;
  // Submission/completion queue pair this driver binds to. Fragment streams
  // are FIFO per queue (Section 3.3.1); independent drivers on different
  // queues may interleave at command granularity.
  std::uint16_t queue_id = 0;
};

class KvDriver {
 public:
  KvDriver(nvme::NvmeTransport* transport, nvme::HostMemory* host,
           DriverConfig config = {}, trace::Tracer* tracer = nullptr);

  // Which transfer path a value of `size` bytes takes (exposed for tests
  // and the calibration benchmark).
  enum class Decision { kPiggyback, kPrp, kHybrid };
  Decision Decide(std::uint64_t size) const;

  Status Put(std::string_view key, ByteSpan value);

  // Host-side batching (bulk PUT), the approach of Dotori / KV-CSD that the
  // paper contrasts in Section 1: packs all records into one PRP payload
  // and a single command. Cheaper in round trips, but the device must
  // unpack and index every record, and the whole batch sits in volatile
  // host memory until submitted (the data-loss window the paper criticizes).
  struct KvPair {
    std::string key;
    Bytes value;
  };
  Status PutBatch(std::span<const KvPair> batch);
  Status PutBatch(std::initializer_list<KvPair> batch) {
    return PutBatch(std::span<const KvPair>(batch.begin(), batch.size()));
  }

  // Bulk counterparts of GET/DELETE so host-side batching covers every op
  // type symmetrically. One command carries all keys in its PRP payload;
  // GetBatch returns one entry per key, in key order.
  struct BatchGetResult {
    bool found = false;
    Bytes value;
  };
  Result<std::vector<BatchGetResult>> GetBatch(
      std::span<const std::string> keys);
  // GetBatch without a result vector of its own: the result for keys[j]
  // goes to results[at[j]] (results[j] when `at` is empty), reusing that
  // entry's value capacity. A router merges per-shard sub-batches straight
  // into its request-order result this way.
  Status GetBatchInto(std::span<const std::string> keys,
                      std::span<const std::size_t> at,
                      std::span<BatchGetResult> results);
  // Deletes every present key (absent keys are skipped, not an error);
  // returns how many were actually removed.
  Result<std::uint32_t> DeleteBatch(std::span<const std::string> keys);

  // Fills `*value` in place, reusing its capacity. Steady-state GET loops
  // call this with a long-lived buffer so the host side performs zero heap
  // allocations per op (DESIGN.md §2.6).
  Status GetInto(std::string_view key, Bytes* value);
  Result<Bytes> Get(std::string_view key);
  Status Delete(std::string_view key);
  // Returns the value size if present.
  Result<std::uint32_t> Exists(std::string_view key);
  // Drains device buffers and checkpoints the device LSM-tree.
  Status Flush();

  // Host-side range-scan handle (SEEK/NEXT, after [22]). Records are
  // fetched in device-filled batches (kKvIterNextBatch) and dispensed
  // locally, so a scan costs ~one NVMe command per 32 KiB of records.
  class Iterator {
   public:
    ~Iterator();
    Iterator(Iterator&&) noexcept;
    Iterator& operator=(Iterator&&) noexcept;
    Iterator(const Iterator&) = delete;
    Iterator& operator=(const Iterator&) = delete;

    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const Bytes& value() const { return value_; }
    // Advances to the following record; invalidates at end.
    Status Next();
    void Close();

   private:
    friend class KvDriver;
    Iterator(KvDriver* driver, std::uint32_t handle)
        : driver_(driver), handle_(handle) {}
    // Pulls the next batch of records from the device.
    Status FetchBatch();

    KvDriver* driver_;
    std::uint32_t handle_;
    bool valid_ = false;
    bool exhausted_ = false;
    std::string key_;
    Bytes value_;
    std::deque<std::pair<std::string, Bytes>> pending_;
  };
  // Positions at the first key >= `from` and fetches it; `from` may be
  // empty to scan from the first key.
  Result<Iterator> Seek(std::string_view from);

  std::uint64_t puts_issued() const { return puts_issued_; }

  // Live adaptive-threshold override (closed-loop control). The controller
  // raises the crossovers when the PCIe TAF budget is breached — steering
  // mid-size values from piggyback fragment streams onto page-unit DMA —
  // and restores the configured base on recovery. Decide() always reads the
  // current values, so the next PUT observes the change.
  void SetAdaptiveThresholds(std::uint32_t t1, std::uint32_t t2) {
    config_.threshold1 = t1;
    config_.threshold2 = t2;
  }
  std::uint32_t threshold1() const { return config_.threshold1; }
  std::uint32_t threshold2() const { return config_.threshold2; }

 private:
  // Runs `body` as one traced host op: the one place an op scope opens
  // (iterator Next/Close aside) and records the op's outcome.
  template <typename Body>
  auto Traced(trace::OpType type, std::uint64_t payload_bytes, Body&& body);
  Status PutBatchImpl(std::span<const KvPair> batch);
  Status GetBatchImpl(std::span<const std::string> keys,
                      std::span<const std::size_t> at,
                      std::span<BatchGetResult> results);
  // Stages bulk_scratch_ in fresh host pages (page_scratch_) and submits
  // it as one `opcode` command; the pages stay allocated for the caller.
  nvme::CqEntry SubmitBulk(nvme::Opcode opcode, std::size_t pages);
  Result<std::uint32_t> DeleteBatchImpl(std::span<const std::string> keys);
  Status PutPiggyback(std::string_view key, ByteSpan value);
  Status PutPrp(std::string_view key, ByteSpan value);
  Status PutHybrid(std::string_view key, ByteSpan value);
  static void AppendTrailingCommands(ByteSpan rest,
                                     std::vector<nvme::NvmeCommand>* out);
  Status SendTrailing(ByteSpan rest);
  // Submits head + trailing as one pipelined batch.
  Status SendPipelined(nvme::NvmeCommand head, ByteSpan rest);
  static Status StatusFromCq(const nvme::CqEntry& cqe);
  // Issues a PRP-read style command, growing the receive buffer on
  // kBufferTooSmall. On success `payload` holds `result` bytes.
  Result<std::uint32_t> SubmitRead(nvme::NvmeCommand cmd, Bytes* payload,
                                   std::size_t initial_pages = 1);

  nvme::NvmeTransport* transport_;
  nvme::HostMemory* host_;
  DriverConfig config_;
  trace::Tracer* tracer_;  // Optional; null = untraced.
  std::uint64_t puts_issued_ = 0;
  // Per-driver scratch reused across ops so the steady-state PUT/GET path
  // never grows a vector after warm-up. Driver calls are serialized per
  // instance (one synchronous stream per queue pair), so a single set of
  // scratch buffers suffices.
  std::vector<nvme::NvmeCommand> cmd_scratch_;
  std::vector<nvme::CqEntry> completion_scratch_;
  std::vector<nvme::PageId> page_scratch_;
  // A bulk command's request payload, encoded at exact size; GetBatch reads
  // the reply into it too.
  Bytes bulk_scratch_;
};

// The KV record rule, stated once for every topology: keys are 1..16 bytes
// and values non-empty. Every keyed command checks it before a command is
// built, and every store checks a whole batch before touching any record,
// so a malformed batch is rejected all-or-nothing with kInvalidArgument.
Status CheckKey(std::string_view key);
Status CheckRecord(std::string_view key, ByteSpan value);
Status CheckBatch(std::span<const KvDriver::KvPair> batch);
Status CheckBatch(std::span<const std::string> keys);

}  // namespace bandslim::driver
