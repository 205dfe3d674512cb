#include "trace/trace.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>

namespace bandslim::trace {

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kDoorbell: return "doorbell";
    case Category::kCmdFetch: return "cmd_fetch";
    case Category::kSubmission: return "submission";
    case Category::kCompletion: return "completion";
    case Category::kTimeout: return "timeout";
    case Category::kRetryBackoff: return "retry_backoff";
    case Category::kKvs: return "kvs";
    case Category::kDma: return "dma";
    case Category::kBufferCopy: return "buffer_copy";
    case Category::kVlogFlush: return "vlog_flush";
    case Category::kVlogRead: return "vlog_read";
    case Category::kFtlGc: return "ftl_gc";
    case Category::kNandProgram: return "nand_program";
    case Category::kNandRead: return "nand_read";
    case Category::kNandErase: return "nand_erase";
    case Category::kOther: return "other";
  }
  return "?";
}

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kPut: return "put";
    case OpType::kGet: return "get";
    case OpType::kDelete: return "delete";
    case OpType::kExists: return "exists";
    case OpType::kFlush: return "flush";
    case OpType::kSeek: return "seek";
    case OpType::kNext: return "next";
    case OpType::kPutBatch: return "put_batch";
    case OpType::kGetBatch: return "get_batch";
    case OpType::kDeleteBatch: return "delete_batch";
    case OpType::kGc: return "gc";
    case OpType::kRecovery: return "recovery";
    case OpType::kOther: return "other";
  }
  return "?";
}

std::uint64_t StageBreakdown::TotalNs() const {
  std::uint64_t total = 0;
  for (auto v : ns) total += v;
  return total;
}

std::uint64_t StageBreakdown::TotalBytes() const {
  std::uint64_t total = 0;
  for (auto v : bytes) total += v;
  return total;
}

void StageBreakdown::Accumulate(const StageBreakdown& other) {
  for (int i = 0; i < kNumCategories; ++i) {
    ns[i] += other.ns[i];
    bytes[i] += other.bytes[i];
  }
}

Tracer::Tracer(sim::VirtualClock* clock, stats::MetricsRegistry* metrics,
               TraceConfig config)
    : clock_(clock), config_(config), enabled_(config.enabled) {
  op_latency_hist_ = metrics->RegisterHistogram("trace.op.latency_ns");
  cmd_latency_hist_ = metrics->RegisterHistogram("trace.cmd.latency_ns");
  for (int i = 0; i < kNumCategories; ++i) {
    stage_hists_[i] = metrics->RegisterHistogram(
        std::string("trace.stage.") +
        CategoryName(static_cast<Category>(i)) + "_ns");
  }
  for (int i = 0; i < kNumOpTypes; ++i) {
    op_type_hists_[i] = metrics->RegisterHistogram(
        std::string("trace.op.") + OpTypeName(static_cast<OpType>(i)) +
        ".latency_ns");
  }
  span_stack_.reserve(16);
}

void Tracer::SetEnabled(bool on) {
  assert(span_stack_.empty() && !cmd_active_ && !op_active_);
  enabled_ = on;
}

void Tracer::BeginOp(OpType type, std::uint16_t queue_id,
                     std::uint64_t payload_bytes) {
  if (op_active_) {
    // Nested driver call (e.g. recovery replaying user ops): fold it into
    // the outer operation instead of starting a new record.
    ++op_nesting_;
    return;
  }
  op_active_ = true;
  // Sampling decision (deterministic op counter, never time): op 0, N, 2N,
  // ... are recorded. sample_every <= 1 records everything (exact mode).
  op_recording_ = config_.sample_every <= 1 ||
                  op_counter_ % config_.sample_every == 0;
  ++op_counter_;
  if (!op_recording_) {
    ++ops_sampled_out_;
    return;  // Cheap mode: no record init, no clock read.
  }
  cur_op_ = OpRecord{};
  cur_op_.seq = next_op_seq_++;
  cur_op_.type = type;
  cur_op_.queue_id = queue_id;
  cur_op_.shard_id = shard_tag_;
  cur_op_.client_op = client_op_ctx_;
  cur_op_.tenant = tenant_ctx_;
  cur_op_.payload_bytes = payload_bytes;
  cur_op_.start_ns = clock_->Now();
}

void Tracer::SetOpResult(bool ok) {
  if (op_active_ && op_recording_ && op_nesting_ == 0) cur_op_.ok = ok;
}

void Tracer::EndOp() {
  if (op_nesting_ > 0) {
    --op_nesting_;
    return;
  }
  assert(op_active_ && !cmd_active_ && span_stack_.empty());
  if (!op_recording_) {
    op_active_ = false;
    op_recording_ = true;
    return;
  }
  cur_op_.end_ns = clock_->Now();
  op_latency_hist_->Record(cur_op_.end_ns - cur_op_.start_ns);
  op_type_hists_[static_cast<int>(cur_op_.type)]->Record(cur_op_.end_ns -
                                                         cur_op_.start_ns);
  if (ops_.size() == kOpCapacity) {
    ops_.pop_front();
    ++dropped_ops_;
  }
  ops_.push_back(cur_op_);
  op_active_ = false;
}

void Tracer::BeginCommand(std::uint16_t queue_id, std::uint8_t opcode) {
  assert(!cmd_active_ && span_stack_.empty());
  cmd_active_ = true;
  // A command inside an unsampled op is suppressed with it; op-less
  // commands (internal traffic) are always recorded.
  cmd_recording_ = !op_active_ || op_recording_;
  if (!cmd_recording_) return;
  cur_cmd_ = CommandRecord{};
  cur_cmd_.seq = next_cmd_seq_++;
  cur_cmd_.op_seq = op_active_ ? cur_op_.seq : kNoSeq;
  cur_cmd_.shard_id = shard_tag_;
  cur_cmd_.tenant = tenant_ctx_;
  cur_cmd_.queue_id = queue_id;
  cur_cmd_.opcode = opcode;
  cur_cmd_.start_ns = clock_->Now();
}

void Tracer::SetCommandCid(std::uint16_t cid) {
  if (cmd_active_ && cmd_recording_) cur_cmd_.cid = cid;
}

void Tracer::EndCommand(std::uint16_t cq_status) {
  assert(cmd_active_ && span_stack_.empty());
  if (!cmd_recording_) {
    cmd_active_ = false;
    cmd_recording_ = true;
    return;
  }
  cur_cmd_.end_ns = clock_->Now();
  cur_cmd_.cq_status = cq_status;
  const std::uint64_t total = cur_cmd_.end_ns - cur_cmd_.start_ns;
  // Exclusive times of all instrumented spans never exceed the command
  // window (the virtual clock is monotone within a command), so the
  // residual is what no span covered.
  const std::uint64_t covered = cur_cmd_.stages.TotalNs();
  assert(covered <= total);
  cur_cmd_.stages.ns[static_cast<int>(Category::kOther)] += total - covered;
  cmd_latency_hist_->Record(total);
  RecordStageHistograms(cur_cmd_.stages);
  if (op_active_) {
    cur_op_.stages.Accumulate(cur_cmd_.stages);
    ++cur_op_.num_commands;
    cur_op_.commands_ns += total;
  }
  if (commands_.size() == kCommandCapacity) {
    commands_.pop_front();
    ++dropped_commands_;
  }
  commands_.push_back(cur_cmd_);
  cmd_active_ = false;
}

void Tracer::RecordStageHistograms(const StageBreakdown& stages) {
  for (int i = 0; i < kNumCategories; ++i) {
    if (stages.ns[i] > 0 || stages.bytes[i] > 0) {
      stage_hists_[i]->Record(stages.ns[i]);
    }
  }
}

void Tracer::OpenSpan(Category category, std::uint64_t bytes) {
  // Spans inside an unsampled context are suppressed entirely (no clock
  // read, no stack push); a depth counter keeps Open/Close balanced. The
  // context can only change at op/command boundaries, where the span stack
  // is empty, so a suppressed open always meets a suppressed close.
  const bool suppressed = cmd_active_
                              ? !cmd_recording_
                              : (op_active_ && !op_recording_);
  if (suppressed) {
    ++suppressed_spans_;
    return;
  }
  span_stack_.push_back(OpenSpanState{
      category, clock_->Now(), bytes, /*child_ns=*/0,
      static_cast<std::uint16_t>(span_stack_.size())});
}

void Tracer::CloseSpan() {
  if (suppressed_spans_ > 0) {
    --suppressed_spans_;
    return;
  }
  assert(!span_stack_.empty());
  const OpenSpanState state = span_stack_.back();
  span_stack_.pop_back();
  const sim::Nanoseconds end = clock_->Now();
  const std::uint64_t duration = end - state.start_ns;
  const std::uint64_t self_ns = duration - state.child_ns;
  if (!span_stack_.empty()) span_stack_.back().child_ns += duration;

  StageBreakdown* stages = nullptr;
  if (cmd_active_) {
    stages = &cur_cmd_.stages;
  } else if (op_active_) {
    stages = &cur_op_.stages;
  } else {
    ++orphan_spans_;
  }
  if (stages != nullptr) {
    stages->ns[static_cast<int>(state.category)] += self_ns;
    stages->bytes[static_cast<int>(state.category)] += state.bytes;
  }

  SpanRecord rec;
  rec.cmd_seq = cmd_active_ ? cur_cmd_.seq : kNoSeq;
  rec.op_seq = op_active_ ? cur_op_.seq : kNoSeq;
  rec.category = state.category;
  rec.shard_id = shard_tag_;
  rec.queue_id = cmd_active_ ? cur_cmd_.queue_id
                             : (op_active_ ? cur_op_.queue_id : 0);
  rec.cid = cmd_active_ ? cur_cmd_.cid : 0;
  rec.depth = state.depth;
  rec.start_ns = state.start_ns;
  rec.end_ns = end;
  rec.bytes = state.bytes;
  if (spans_.size() == kSpanCapacity) {
    spans_.pop_front();
    ++dropped_spans_;
  }
  spans_.push_back(rec);
}

void Tracer::InstantSpan(Category category, std::uint64_t bytes) {
  OpenSpan(category, bytes);
  CloseSpan();
}

StageBreakdown Tracer::AggregateCommandStages() const {
  StageBreakdown total;
  for (const auto& cmd : commands_) total.Accumulate(cmd.stages);
  return total;
}

void Tracer::Clear() {
  assert(span_stack_.empty() && suppressed_spans_ == 0 && !cmd_active_ &&
         !op_active_);
  ops_.clear();
  commands_.clear();
  spans_.clear();
  dropped_ops_ = dropped_commands_ = dropped_spans_ = 0;
  orphan_spans_ = 0;
  op_counter_ = ops_sampled_out_ = 0;
}

namespace {

// Mnemonics mirror nvme::Opcode (src/nvme/command.h); kept local so the
// trace layer stays independent of the transport headers.
const char* OpcodeMnemonic(std::uint8_t opcode) {
  switch (opcode) {
    case 0xC1: return "KvWrite";
    case 0xC2: return "KvTransfer";
    case 0xC3: return "KvRead";
    case 0xC4: return "KvDelete";
    case 0xC5: return "KvIterSeek";
    case 0xC7: return "KvFlush";
    case 0xC8: return "KvExists";
    case 0xC9: return "KvIterClose";
    case 0xCA: return "KvBulkWrite";
    case 0xCB: return "KvIterNextBatch";
    case 0xCC: return "KvBulkRead";
    case 0xCD: return "KvBulkDelete";
    default: return "Unknown";
  }
}

// Fixed-point microsecond rendering of a nanosecond value ("%u.%03u"):
// avoids floating point so exports are byte-deterministic.
void AppendMicros(std::string* out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  out->append(buf);
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

struct ChromeEvent {
  sim::Nanoseconds start_ns;
  sim::Nanoseconds end_ns;
  int rank;  // 0 = op, 1 = command, 2 = span (outer first at equal ts).
  std::uint64_t seq;
  std::uint16_t depth;
  std::string name;
  const char* cat;
  std::uint16_t pid;
  std::uint16_t tid;
  std::string args;
};

// Untagged tracers (single device) keep the historical pid 1; a cluster
// shard's tag s + 1 becomes its pid, so a merged multi-shard trace renders
// one process lane per shard in chrome://tracing.
std::uint16_t PidOf(std::uint16_t shard_tag) {
  return shard_tag == 0 ? 1 : shard_tag;
}

}  // namespace

std::string ToChromeTraceJson(const Tracer& tracer) {
  std::vector<ChromeEvent> events;
  events.reserve(tracer.ops().size() + tracer.commands().size() +
                 tracer.spans().size());
  for (const auto& op : tracer.ops()) {
    ChromeEvent e;
    e.start_ns = op.start_ns;
    e.end_ns = op.end_ns;
    e.rank = 0;
    e.seq = op.seq;
    e.depth = 0;
    e.name = OpTypeName(op.type);
    e.cat = "op";
    e.pid = PidOf(op.shard_id);
    e.tid = op.queue_id;
    e.args = "{\"seq\":";
    AppendU64(&e.args, op.seq);
    if (op.client_op != kNoSeq) {
      e.args += ",\"client_op\":";
      AppendU64(&e.args, op.client_op);
    }
    e.args += ",\"payload_bytes\":";
    AppendU64(&e.args, op.payload_bytes);
    e.args += ",\"commands\":";
    AppendU64(&e.args, op.num_commands);
    e.args += op.ok ? ",\"ok\":true}" : ",\"ok\":false}";
    events.push_back(std::move(e));
  }
  for (const auto& cmd : tracer.commands()) {
    ChromeEvent e;
    e.start_ns = cmd.start_ns;
    e.end_ns = cmd.end_ns;
    e.rank = 1;
    e.seq = cmd.seq;
    e.depth = 0;
    e.name = OpcodeMnemonic(cmd.opcode);
    e.cat = "cmd";
    e.pid = PidOf(cmd.shard_id);
    e.tid = cmd.queue_id;
    e.args = "{\"seq\":";
    AppendU64(&e.args, cmd.seq);
    e.args += ",\"cid\":";
    AppendU64(&e.args, cmd.cid);
    e.args += ",\"cq_status\":";
    AppendU64(&e.args, cmd.cq_status);
    e.args += "}";
    events.push_back(std::move(e));
  }
  for (const auto& span : tracer.spans()) {
    ChromeEvent e;
    e.start_ns = span.start_ns;
    e.end_ns = span.end_ns;
    e.rank = 2;
    e.seq = span.cmd_seq;
    e.depth = span.depth;
    e.name = CategoryName(span.category);
    e.cat = "span";
    e.pid = PidOf(span.shard_id);
    e.tid = span.queue_id;
    e.args = "{\"cmd_seq\":";
    AppendU64(&e.args, span.cmd_seq);
    e.args += ",\"bytes\":";
    AppendU64(&e.args, span.bytes);
    e.args += "}";
    events.push_back(std::move(e));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChromeEvent& a, const ChromeEvent& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return a.depth < b.depth;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    out += e.name;
    out += "\",\"cat\":\"";
    out += e.cat;
    out += "\",\"ph\":\"X\",\"pid\":";
    AppendU64(&out, e.pid);
    out += ",\"tid\":";
    AppendU64(&out, e.tid);
    out += ",\"ts\":";
    AppendMicros(&out, e.start_ns);
    out += ",\"dur\":";
    AppendMicros(&out, e.end_ns - e.start_ns);
    out += ",\"args\":";
    out += e.args;
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string ToBreakdownCsv(const Tracer& tracer) {
  std::string out =
      "cmd_seq,op_seq,op,opcode,queue,cid,cq_status,start_ns,latency_ns";
  for (int i = 0; i < kNumCategories; ++i) {
    const char* name = CategoryName(static_cast<Category>(i));
    out += ",";
    out += name;
    out += "_ns,";
    out += name;
    out += "_bytes";
  }
  out += ",shard,client_op,tenant\n";

  struct OpInfo {
    OpType type;
    std::uint64_t client_op;
  };
  std::unordered_map<std::uint64_t, OpInfo> op_types;
  op_types.reserve(tracer.ops().size());
  for (const auto& op : tracer.ops()) {
    op_types.emplace(op.seq, OpInfo{op.type, op.client_op});
  }

  for (const auto& cmd : tracer.commands()) {
    AppendU64(&out, cmd.seq);
    out += ",";
    if (cmd.op_seq == kNoSeq) {
      out += "-";
    } else {
      AppendU64(&out, cmd.op_seq);
    }
    out += ",";
    const auto it = op_types.find(cmd.op_seq);
    out += it != op_types.end() ? OpTypeName(it->second.type) : "-";
    out += ",";
    out += OpcodeMnemonic(cmd.opcode);
    out += ",";
    AppendU64(&out, cmd.queue_id);
    out += ",";
    AppendU64(&out, cmd.cid);
    out += ",";
    AppendU64(&out, cmd.cq_status);
    out += ",";
    AppendU64(&out, cmd.start_ns);
    out += ",";
    AppendU64(&out, cmd.end_ns - cmd.start_ns);
    for (int i = 0; i < kNumCategories; ++i) {
      out += ",";
      AppendU64(&out, cmd.stages.ns[i]);
      out += ",";
      AppendU64(&out, cmd.stages.bytes[i]);
    }
    // Shard tag (s + 1 on a cluster shard, "-" untagged) and the router
    // client op this shard op belongs to, so a cross-shard batch can be
    // reassembled from the flat per-command rows.
    out += ",";
    if (cmd.shard_id == 0) {
      out += "-";
    } else {
      AppendU64(&out, static_cast<std::uint64_t>(cmd.shard_id - 1));
    }
    out += ",";
    if (it != op_types.end() && it->second.client_op != kNoSeq) {
      AppendU64(&out, it->second.client_op);
    } else {
      out += "-";
    }
    // Tenant tag (t + 1 stamped by the cluster, "-" untagged), same
    // convention as the shard column.
    out += ",";
    if (cmd.tenant == 0) {
      out += "-";
    } else {
      AppendU64(&out, static_cast<std::uint64_t>(cmd.tenant - 1));
    }
    out += "\n";
  }
  return out;
}

}  // namespace bandslim::trace
