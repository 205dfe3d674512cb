// Per-command tracing and latency attribution (DESIGN.md 2.3).
//
// A Tracer stamps every host operation (PUT/GET/...) and every NVMe command
// with begin/end timestamps from the shared sim::VirtualClock, and records
// typed spans as the command flows driver -> transport -> controller ->
// DMA -> page buffer / vLog -> FTL -> NAND. Attribution is *exclusive*
// (self-time): a span's nanoseconds exclude time spent in spans nested
// inside it, so for every command
//
//     sum over categories of stages.ns[c]  ==  end_ns - start_ns   exactly,
//
// with Category::kOther holding the residual that no instrumented span
// covered. Timestamps come from the virtual clock, so traces are
// deterministic and bit-reproducible across runs.
//
// Zero overhead when disabled: every component holds a `Tracer*` that is
// nullptr (or a disabled tracer) by default, and each RAII scope checks
// `Active(tracer)` exactly once at construction — one predictable branch
// on the hot path, no allocation, no clock read.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/clock.h"
#include "stats/metrics.h"

namespace bandslim::trace {

// Span taxonomy. One category per stage of the stack that can consume
// virtual time or move bytes. Leaf stages (DMA, NAND, buffer copies) are
// charged exclusively; composite stages (kKvs) keep only their self-time.
enum class Category : std::uint8_t {
  kDoorbell = 0,    // Host doorbell MMIO ring (bytes only; MMIO is untimed).
  kCmdFetch,        // SQ entry + PRP list fetch over PCIe (bytes only).
  kSubmission,      // SQ wait + command fetch/arbitration latency.
  kCompletion,      // CQ entry posting (bytes only).
  kTimeout,         // Host watchdog waiting out a dropped command.
  kRetryBackoff,    // Exponential backoff before a resubmission.
  kKvs,             // Controller KV processing (index ops, persist barrier).
  kDma,             // PRP data DMA, either direction.
  kBufferCopy,      // NAND page buffer memcpy (value packing / staging).
  kVlogFlush,       // Page buffer eviction flushing a 16 KiB page.
  kVlogRead,        // vLog read miss serviced from NAND.
  kFtlGc,           // FTL garbage collection / failure relocation.
  kNandProgram,     // NAND page program (includes die/channel stalls).
  kNandRead,        // NAND page read (includes stalls + ECC retry).
  kNandErase,       // NAND block erase.
  kOther,           // Residual: command window not covered by any span.
};
inline constexpr int kNumCategories = 16;
const char* CategoryName(Category c);

enum class OpType : std::uint8_t {
  kPut = 0,
  kGet,
  kDelete,
  kExists,
  kFlush,
  kSeek,
  kNext,
  kPutBatch,
  kGetBatch,
  kDeleteBatch,
  kGc,
  kRecovery,
  kOther,
};
inline constexpr int kNumOpTypes = 13;
const char* OpTypeName(OpType t);

// Ring capacities; the oldest record is dropped (and counted) on overflow.
inline constexpr std::size_t kOpCapacity = 1u << 15;
inline constexpr std::size_t kCommandCapacity = 1u << 16;
inline constexpr std::size_t kSpanCapacity = 1u << 18;

struct TraceConfig {
  bool enabled = false;
  // Sampled tracing (DESIGN.md 2.6): record every Nth host operation.
  // 1 (the default) is exact mode — every op, command, and span is recorded
  // and all exports are bit-identical to the pre-sampling tracer. N > 1 is
  // cheap mode: unsampled ops skip ring writes, clock reads, and histogram
  // updates entirely (their commands and spans are suppressed with them);
  // the per-op sampling decision is a deterministic counter, never time or
  // randomness, so a sampled run is still bit-reproducible. Commands issued
  // outside any op (e.g. internal recovery traffic) are always recorded.
  std::uint64_t sample_every = 1;
};

inline constexpr std::uint64_t kNoSeq = ~0ULL;

// Per-category exclusive nanoseconds and byte counts.
struct StageBreakdown {
  std::array<std::uint64_t, kNumCategories> ns{};
  std::array<std::uint64_t, kNumCategories> bytes{};

  std::uint64_t TotalNs() const;
  std::uint64_t TotalBytes() const;
  void Accumulate(const StageBreakdown& other);
};

// One host-visible operation (a driver API call). Aggregates the stage
// breakdowns of every command it issued; `commands_ns` is the sum of the
// individual command windows (host-side framing is the remainder).
struct OpRecord {
  std::uint64_t seq = kNoSeq;
  OpType type = OpType::kOther;
  std::uint16_t queue_id = 0;
  // Shard tag of the tracer that recorded this op (0 = untagged / single
  // device; a KvCluster tags shard s as s + 1).
  std::uint16_t shard_id = 0;
  // Router-level client operation this shard-local op served (kNoSeq when
  // not dispatched through a cluster). One cross-shard batch fans out into
  // N shard ops sharing the same client_op, which is how trace_breakdown
  // stitches a fleet-wide request back together.
  std::uint64_t client_op = kNoSeq;
  // Tenant that issued the op (0 = untagged; a KvCluster tags tenant t as
  // t + 1, mirroring shard_id).
  std::uint16_t tenant = 0;
  bool ok = true;
  std::uint64_t payload_bytes = 0;
  sim::Nanoseconds start_ns = 0;
  sim::Nanoseconds end_ns = 0;
  std::uint32_t num_commands = 0;
  std::uint64_t commands_ns = 0;
  StageBreakdown stages;
};

// One NVMe command, submit doorbell to completion reap. The breakdown's
// category sum equals end_ns - start_ns exactly (kOther is the residual).
struct CommandRecord {
  std::uint64_t seq = kNoSeq;
  std::uint64_t op_seq = kNoSeq;
  std::uint16_t shard_id = 0;  // See OpRecord::shard_id.
  std::uint16_t tenant = 0;    // See OpRecord::tenant.
  std::uint16_t queue_id = 0;
  std::uint16_t cid = 0;
  std::uint8_t opcode = 0;
  std::uint16_t cq_status = 0;
  sim::Nanoseconds start_ns = 0;
  sim::Nanoseconds end_ns = 0;
  StageBreakdown stages;
};

// One raw span as recorded by an instrumentation site. `depth` is the
// nesting depth within the enclosing command (0 = direct child).
struct SpanRecord {
  std::uint64_t cmd_seq = kNoSeq;
  std::uint64_t op_seq = kNoSeq;
  Category category = Category::kOther;
  std::uint16_t shard_id = 0;  // See OpRecord::shard_id.
  std::uint16_t queue_id = 0;
  std::uint16_t cid = 0;
  std::uint16_t depth = 0;
  sim::Nanoseconds start_ns = 0;
  sim::Nanoseconds end_ns = 0;
  std::uint64_t bytes = 0;
};

class Tracer {
 public:
  Tracer(sim::VirtualClock* clock, stats::MetricsRegistry* metrics,
         TraceConfig config = {});

  bool enabled() const { return enabled_; }
  // Toggling mid-operation is not supported: all scopes must be closed.
  void SetEnabled(bool on);
  const TraceConfig& config() const { return config_; }

  // --- Fleet attribution (cluster routing). A KvCluster tags each shard's
  // tracer once at assembly (shard s -> tag s + 1; 0 means untagged) and
  // brackets every dispatched sub-operation with the router-level client-op
  // sequence, so shard-local records can be stitched back into the
  // cross-shard request that caused them. Both are plain stamps copied onto
  // records at Begin*: they never touch the clock or the rings.
  void SetShardTag(std::uint16_t tag) { shard_tag_ = tag; }
  std::uint16_t shard_tag() const { return shard_tag_; }
  void SetClientOpContext(std::uint64_t client_op) {
    client_op_ctx_ = client_op;
  }
  void ClearClientOpContext() { client_op_ctx_ = kNoSeq; }
  // Tenant stamp for ops/commands begun while set (0 = untagged; cluster
  // tenant t stamps t + 1). Same plain-stamp semantics as the client-op
  // context: never touches the clock or the rings.
  void SetTenantContext(std::uint16_t tenant) { tenant_ctx_ = tenant; }
  void ClearTenantContext() { tenant_ctx_ = 0; }
  std::uint16_t tenant_context() const { return tenant_ctx_; }

  // --- Operation lifecycle (driver API calls). Ops may nest (e.g. a
  // recovery op replaying PUTs); inner ops fold into the outermost one.
  void BeginOp(OpType type, std::uint16_t queue_id,
               std::uint64_t payload_bytes);
  void SetOpResult(bool ok);
  void EndOp();

  // --- Command lifecycle (transport). Commands never nest.
  void BeginCommand(std::uint16_t queue_id, std::uint8_t opcode);
  void SetCommandCid(std::uint16_t cid);
  void EndCommand(std::uint16_t cq_status);

  // --- Spans. OpenSpan/CloseSpan must be balanced; `bytes` is attributed
  // at open. InstantSpan records a zero-duration byte-accounting event.
  void OpenSpan(Category category, std::uint64_t bytes);
  void CloseSpan();
  void InstantSpan(Category category, std::uint64_t bytes);

  // --- Sinks (bounded rings; oldest dropped first).
  const std::deque<OpRecord>& ops() const { return ops_; }
  const std::deque<CommandRecord>& commands() const { return commands_; }
  const std::deque<SpanRecord>& spans() const { return spans_; }
  std::uint64_t dropped_ops() const { return dropped_ops_; }
  std::uint64_t dropped_commands() const { return dropped_commands_; }
  std::uint64_t dropped_spans() const { return dropped_spans_; }
  // Spans recorded outside any command or op (should stay 0).
  std::uint64_t orphan_spans() const { return orphan_spans_; }
  bool command_active() const { return cmd_active_; }
  bool op_active() const { return op_active_; }
  // Host ops seen (sampled or not) and ops skipped by sampling.
  std::uint64_t ops_seen() const { return op_counter_; }
  std::uint64_t ops_sampled_out() const { return ops_sampled_out_; }

  // Aggregate breakdown over all retained commands.
  StageBreakdown AggregateCommandStages() const;

  void Clear();

 private:
  struct OpenSpanState {
    Category category;
    sim::Nanoseconds start_ns;
    std::uint64_t bytes;
    std::uint64_t child_ns;
    std::uint16_t depth;
  };

  void RecordStageHistograms(const StageBreakdown& stages);

  sim::VirtualClock* clock_;
  TraceConfig config_;
  bool enabled_;

  std::deque<OpRecord> ops_;
  std::deque<CommandRecord> commands_;
  std::deque<SpanRecord> spans_;
  std::uint64_t dropped_ops_ = 0;
  std::uint64_t dropped_commands_ = 0;
  std::uint64_t dropped_spans_ = 0;
  std::uint64_t orphan_spans_ = 0;

  std::vector<OpenSpanState> span_stack_;
  bool op_active_ = false;
  int op_nesting_ = 0;
  OpRecord cur_op_;
  bool cmd_active_ = false;
  CommandRecord cur_cmd_;
  std::uint64_t next_op_seq_ = 0;
  std::uint64_t next_cmd_seq_ = 0;
  // Sampling state (see TraceConfig::sample_every). `op_recording_` is
  // decided once at the outermost BeginOp; `cmd_recording_` follows the
  // enclosing op (true for op-less commands). `suppressed_spans_` balances
  // OpenSpan/CloseSpan pairs inside unsampled contexts without touching the
  // span stack or the clock.
  bool op_recording_ = true;
  bool cmd_recording_ = true;
  std::uint16_t shard_tag_ = 0;
  std::uint64_t client_op_ctx_ = kNoSeq;
  std::uint16_t tenant_ctx_ = 0;
  std::uint64_t op_counter_ = 0;
  std::uint64_t ops_sampled_out_ = 0;
  std::uint64_t suppressed_spans_ = 0;

  stats::Histogram* op_latency_hist_;
  stats::Histogram* cmd_latency_hist_;
  std::array<stats::Histogram*, kNumCategories> stage_hists_;
  // Per-op-type latency ("trace.op.put.latency_ns", ...) feeding the
  // sampler's per-interval p50/p95/p99 series.
  std::array<stats::Histogram*, kNumOpTypes> op_type_hists_;
};

// Single hot-path check shared by all scopes and instrumentation sites.
inline bool Active(const Tracer* t) { return t != nullptr && t->enabled(); }

class SpanScope {
 public:
  SpanScope(Tracer* tracer, Category category, std::uint64_t bytes = 0)
      : tracer_(Active(tracer) ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->OpenSpan(category, bytes);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->CloseSpan();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

class OpScope {
 public:
  OpScope(Tracer* tracer, OpType type, std::uint16_t queue_id,
          std::uint64_t payload_bytes = 0)
      : tracer_(Active(tracer) ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->BeginOp(type, queue_id, payload_bytes);
  }
  ~OpScope() {
    if (tracer_ != nullptr) tracer_->EndOp();
  }
  void set_ok(bool ok) {
    if (tracer_ != nullptr) tracer_->SetOpResult(ok);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Tracer* tracer_;
};

class CommandScope {
 public:
  CommandScope(Tracer* tracer, std::uint16_t queue_id, std::uint8_t opcode)
      : tracer_(Active(tracer) ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->BeginCommand(queue_id, opcode);
  }
  void Finish(std::uint16_t cq_status) {
    if (tracer_ != nullptr) {
      tracer_->EndCommand(cq_status);
      tracer_ = nullptr;
    }
  }
  ~CommandScope() {
    if (tracer_ != nullptr) tracer_->EndCommand(/*cq_status=*/0);
  }
  CommandScope(const CommandScope&) = delete;
  CommandScope& operator=(const CommandScope&) = delete;

 private:
  Tracer* tracer_;
};

// --- Deterministic exports. Both produce byte-identical output for
// identical runs (virtual timestamps, fixed formatting, stable sort).

// Chrome trace_event JSON ("traceEvents" array of ph:"X" complete events,
// pid = 1, tid = queue_id, ts/dur in microseconds with fixed 3-decimal
// nanosecond precision). Loadable in chrome://tracing and Perfetto.
std::string ToChromeTraceJson(const Tracer& tracer);

// Per-command CSV: one row per command with start/latency and the full
// per-category exclusive ns + bytes breakdown.
std::string ToBreakdownCsv(const Tracer& tracer);

}  // namespace bandslim::trace
