#include "controller/controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "nvme/command.h"

namespace bandslim::controller {

using nvme::CqEntry;
using nvme::CqStatus;
using nvme::NvmeCommand;
using nvme::Opcode;

namespace {

// Honest completion-status mapping: keep the failure class visible to the
// host instead of collapsing everything onto one generic code.
CqStatus CqStatusFromStatus(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk: return CqStatus::kSuccess;
    case StatusCode::kNotFound: return CqStatus::kNotFound;
    case StatusCode::kInvalidArgument: return CqStatus::kInvalidField;
    case StatusCode::kOutOfSpace: return CqStatus::kOutOfSpace;
    case StatusCode::kMediaError: return CqStatus::kMediaError;
    case StatusCode::kTimedOut: return CqStatus::kTimedOut;
    default: return CqStatus::kInternalError;
  }
}

// A key copied out of a command, as the LSM API takes it.
std::string_view KeyView(const std::uint8_t* data, std::size_t len) {
  return {reinterpret_cast<const char*>(data), len};
}

}  // namespace

KvController::KvController(sim::VirtualClock* clock, const sim::CostModel* cost,
                           stats::MetricsRegistry* metrics, dma::DmaEngine* dma,
                           vlog::VLog* vlog, lsm::LsmTree* lsm,
                           ControllerConfig config, trace::Tracer* tracer)
    : clock_(clock),
      tracer_(tracer),
      cost_(cost),
      dma_(dma),
      vlog_(vlog),
      lsm_(lsm),
      config_(config),
      writes_counter_(metrics->GetCounter("controller.values_written")),
      write_bytes_counter_(metrics->GetCounter("controller.value_bytes_written")),
      reads_counter_(metrics->GetCounter("controller.values_read")),
      read_memcpy_bytes_(metrics->GetCounter("controller.read_memcpy_bytes")),
      gc_relocated_values_(metrics->GetCounter("controller.gc_relocated_values")) {}

CqEntry KvController::Fail(CqStatus status, std::uint16_t queue_id) {
  if (queue_id < pending_.size()) pending_[queue_id].active = false;
  return CqEntry{0, 0, status};
}

CqEntry KvController::FailOp(CqStatus status) { return CqEntry{0, 0, status}; }

CqEntry KvController::Handle(const NvmeCommand& cmd, std::uint16_t queue_id) {
  // All device-side processing is kKvs self-time; nested DMA / buffer /
  // NAND spans carve their own exclusive shares out of it.
  trace::SpanScope span(tracer_, trace::Category::kKvs);
  switch (cmd.opcode()) {
    case Opcode::kKvWrite: return HandleWrite(cmd, queue_id);
    case Opcode::kKvBulkWrite: return HandleBulkWrite(cmd);
    case Opcode::kKvBulkRead: return HandleBulkRead(cmd);
    case Opcode::kKvBulkDelete: return HandleBulkDelete(cmd);
    case Opcode::kKvTransfer: return HandleTransfer(cmd, queue_id);
    case Opcode::kKvRead: return HandleRead(cmd);
    case Opcode::kKvDelete: return HandleDelete(cmd);
    case Opcode::kKvExists: return HandleExists(cmd);
    case Opcode::kKvIterSeek: return HandleIterSeek(cmd);
    case Opcode::kKvIterNextBatch: return HandleIterNextBatch(cmd);
    case Opcode::kKvIterClose: return HandleIterClose(cmd);
    case Opcode::kKvFlush: return HandleFlush();
    case Opcode::kInvalid: break;
  }
  return Fail(CqStatus::kInvalidField, queue_id);
}

CqEntry KvController::HandleWrite(const NvmeCommand& cmd,
                                  std::uint16_t queue_id) {
  PendingWrite& op = Slot(queue_id);
  if (op.active) return Fail(CqStatus::kInvalidField, queue_id);
  const std::size_t key_len = cmd.key_size();
  const std::uint32_t value_size = cmd.value_size();
  if (key_len == 0 || key_len > kMaxKeySize || value_size == 0) {
    return Fail(CqStatus::kInvalidField, queue_id);
  }

  // Reset the slot in place; `staged` keeps its capacity from earlier ops.
  op.key_len = static_cast<std::uint8_t>(
      cmd.CopyKeyTo({op.key.data(), op.key.size()}));
  op.value_size = value_size;
  op.staged.clear();
  op.piggy_received = 0;
  op.has_dma = false;
  op.reservation = {};

  if (!cmd.prp.empty()) {
    // PRP-described payload: trigger the page-unit DMA (Section 2.2).
    const std::uint64_t prp_bytes = cmd.prp.DmaBytes();
    op.has_dma = true;
    Status dma_status;
    if (config_.nand_io_enabled) {
      auto res = vlog_->buffer().ReserveDma(prp_bytes, value_size);
      if (!res.ok()) return Fail(CqStatus::kOutOfSpace, queue_id);
      op.reservation = res.value();
      dma_status = dma_->HostToDevice(
          cmd.prp, op.reservation.dest_addr, [&](std::uint64_t off) {
            return vlog_->buffer().DmaPageSlice(op.reservation, off);
          });
    } else {
      // NAND I/O disabled (Section 4.2): land in a scratch page buffer so
      // traffic and latency are still faithfully accounted.
      op.reservation = {0, prp_bytes, value_size};
      if (nand_off_scratch_.size() < prp_bytes) {
        nand_off_scratch_.resize(prp_bytes);
      }
      dma_status = dma_->HostToDevice(cmd.prp, 0, [&](std::uint64_t off) {
        return MutByteSpan(nand_off_scratch_).subspan(off, kMemPageSize);
      });
    }
    if (!dma_status.ok()) return Fail(CqStatusFromStatus(dma_status), queue_id);
    if (prp_bytes >= value_size) {
      return FinishWrite(op);  // Pure PRP transfer.
    }
    op.active = true;  // Hybrid: trailing follows.
    return CqEntry{};
  }

  // Piggybacked head fragment (Figure 6a).
  if (!cmd.piggybacked()) return Fail(CqStatus::kInvalidField, queue_id);
  const std::size_t head_bytes =
      std::min<std::size_t>(kWriteCmdPiggybackCapacity, value_size);
  op.staged.resize(head_bytes);
  nvme::codec::GetWritePiggyback(cmd, MutByteSpan(op.staged));
  op.piggy_received = head_bytes;
  if (cmd.final_fragment()) {
    if (head_bytes != value_size) return Fail(CqStatus::kInvalidField, queue_id);
    return FinishWrite(op);
  }
  op.active = true;
  return CqEntry{};
}

CqStatus KvController::StageBulk(const NvmeCommand& cmd) {
  const std::uint32_t payload_size = cmd.value_size();
  if (payload_size == 0 || cmd.prp.empty() ||
      cmd.prp.DmaBytes() < payload_size) {
    return CqStatus::kInvalidField;
  }
  if (bulk_staging_.size() < cmd.prp.DmaBytes()) {
    bulk_staging_.resize(cmd.prp.DmaBytes());
  }
  const Status dma_status =
      dma_->HostToDevice(cmd.prp, 0, [&](std::uint64_t off) {
        return MutByteSpan(bulk_staging_).subspan(off, kMemPageSize);
      });
  return dma_status.ok() ? CqStatus::kSuccess : CqStatus::kInternalError;
}

CqEntry KvController::HandleBulkWrite(const NvmeCommand& cmd) {
  // Host-side batching (Section 1's "existing approach"): one PRP payload
  // carries many records that the device must unpack and index one by one —
  // the per-record overhead the paper points out.
  const std::uint32_t payload_size = cmd.value_size();
  if (const CqStatus staged = StageBulk(cmd); staged != CqStatus::kSuccess) {
    return CqEntry{0, 0, staged};
  }

  std::uint32_t records = 0;
  std::size_t off = 0;
  while (off < payload_size) {
    // [u8 klen][key][u32 vsize][value]
    const std::size_t klen = bulk_staging_[off++];
    if (klen == 0 || klen > kMaxKeySize || off + klen + 4 > payload_size) {
      return CqEntry{0, 0, CqStatus::kInvalidField};
    }
    const std::string_view key = KeyView(&bulk_staging_[off], klen);
    off += klen;
    std::uint32_t vsize = 0;
    for (int i = 0; i < 4; ++i) {
      vsize |= static_cast<std::uint32_t>(bulk_staging_[off++]) << (8 * i);
    }
    if (vsize == 0 || off + vsize > payload_size) {
      return CqEntry{0, 0, CqStatus::kInvalidField};
    }
    const ByteSpan value(&bulk_staging_[off], vsize);
    off += vsize;

    // Per-record indexing work, exactly as for individual writes.
    clock_->Advance(cost_->dev_kvs_ns);
    if (config_.nand_io_enabled) {
      clock_->Advance(cost_->dev_persist_ns);
      // Unpacking = a device copy from the staging area into the buffer.
      auto addr = vlog_->buffer().PackPiggybacked(value);
      if (!addr.ok()) return CqEntry{0, 0, CqStatus::kOutOfSpace};
      if (!lsm_->Put(key, lsm::ValueRef{addr.value(), vsize, false}).ok()) {
        return CqEntry{0, 0, CqStatus::kInternalError};
      }
    }
    ++values_written_;
    value_bytes_written_ += vsize;
    writes_counter_->Increment();
    write_bytes_counter_->Add(vsize);
    ++records;
  }
  return CqEntry{records, 0, CqStatus::kSuccess};
}

bool KvController::DecodeKeyBatch(std::uint32_t payload_size) {
  // [u8 klen][key]* — the wire format admits no legal empty batch (the
  // driver never sends one).
  bulk_keys_.clear();
  std::size_t off = 0;
  while (off < payload_size) {
    const std::size_t klen = bulk_staging_[off++];
    if (klen == 0 || klen > kMaxKeySize || off + klen > payload_size) {
      return false;
    }
    bulk_keys_.push_back(KeyView(&bulk_staging_[off], klen));
    off += klen;
  }
  return !bulk_keys_.empty();
}

CqEntry KvController::HandleBulkRead(const NvmeCommand& cmd) {
  if (!config_.nand_io_enabled) return FailOp(CqStatus::kInvalidField);
  const std::uint32_t payload_size = cmd.value_size();
  if (const CqStatus staged = StageBulk(cmd); staged != CqStatus::kSuccess) {
    return CqEntry{0, 0, staged};
  }
  if (!DecodeKeyBatch(payload_size)) {
    return CqEntry{0, 0, CqStatus::kInvalidField};
  }

  // Pass 1: index lookups only, to size the response before touching the
  // vLog. Each key costs the per-record KVS work exactly as a single GET.
  std::vector<Result<lsm::ValueRef>>& refs = bulk_refs_;
  refs.clear();
  std::uint64_t response_size = 0;
  for (const std::string_view key : bulk_keys_) {
    clock_->Advance(cost_->dev_kvs_ns);
    refs.push_back(lsm_->Get(key));
    response_size += 5;  // [u8 found][u32 vsize]
    if (refs.back().ok()) response_size += refs.back().value().size;
  }
  if (cmd.prp.DmaBytes() < response_size) {
    return CqEntry{static_cast<std::uint32_t>(response_size), 0,
                   CqStatus::kBufferTooSmall};
  }

  // Pass 2: materialize values into a page-aligned bounce buffer and DMA
  // the packed response back over the same PRP pages. The buffer is recycled
  // across commands, so every record header byte is written explicitly.
  MutByteSpan bounce = Bounce(RoundUpPow2(response_size, kMemPageSize));
  std::size_t off = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!refs[i].ok()) {
      if (!refs[i].status().IsNotFound()) {
        return FailOp(CqStatusFromStatus(refs[i].status()));
      }
      for (int b = 0; b < 5; ++b) bounce[off++] = 0;  // found=0, vsize=0.
      continue;
    }
    const lsm::ValueRef& ref = refs[i].value();
    bounce[off++] = 1;
    for (int b = 0; b < 4; ++b) {
      bounce[off++] = static_cast<std::uint8_t>(ref.size >> (8 * b));
    }
    const Status read_st =
        vlog_->Read(ref.addr, bounce.subspan(off, ref.size));
    if (!read_st.ok()) return FailOp(CqStatusFromStatus(read_st));
    clock_->Advance(cost_->MemcpyCost(ref.size));
    read_memcpy_bytes_->Add(ref.size);
    reads_counter_->Increment();
    off += ref.size;
  }
  if (!dma_->DeviceToHost(ByteSpan(bounce.data(), response_size), 0, cmd.prp)
           .ok()) {
    return FailOp(CqStatus::kInternalError);
  }
  return CqEntry{static_cast<std::uint32_t>(response_size), 0,
                 CqStatus::kSuccess};
}

CqEntry KvController::HandleBulkDelete(const NvmeCommand& cmd) {
  if (!config_.nand_io_enabled) return FailOp(CqStatus::kInvalidField);
  const std::uint32_t payload_size = cmd.value_size();
  if (const CqStatus staged = StageBulk(cmd); staged != CqStatus::kSuccess) {
    return CqEntry{0, 0, staged};
  }
  if (!DecodeKeyBatch(payload_size)) {
    return CqEntry{0, 0, CqStatus::kInvalidField};
  }

  std::uint32_t removed = 0;
  for (const std::string_view key : bulk_keys_) {
    clock_->Advance(cost_->dev_kvs_ns);
    const bool present = lsm_->Get(key).ok();
    if (!present) continue;  // Absent keys are skipped, not an error.
    if (!lsm_->Delete(key).ok()) return FailOp(CqStatus::kInternalError);
    ++removed;
  }
  return CqEntry{removed, 0, CqStatus::kSuccess};
}

CqEntry KvController::HandleTransfer(const NvmeCommand& cmd,
                                     std::uint16_t queue_id) {
  if (queue_id >= pending_.size() || !pending_[queue_id].active) {
    return Fail(CqStatus::kInvalidField, queue_id);
  }
  PendingWrite& op = pending_[queue_id];
  const std::uint64_t received =
      (op.has_dma ? op.reservation.prp_bytes : 0) + op.piggy_received;
  if (received >= op.value_size) return Fail(CqStatus::kInvalidField, queue_id);
  const std::uint64_t remaining = op.value_size - received;
  const std::size_t n =
      std::min<std::uint64_t>(kTransferCmdPiggybackCapacity, remaining);
  // Decode the fragment into a stack buffer — no per-fragment allocation.
  std::array<std::uint8_t, kTransferCmdPiggybackCapacity> fragment;
  nvme::codec::GetTransferPayload(cmd, MutByteSpan(fragment.data(), n));

  if (op.has_dma) {
    if (config_.nand_io_enabled) {
      // Hybrid trailing bytes extend the DMA extent in place (Section 3.2).
      Status st = vlog_->buffer().AppendTrailing(
          op.reservation, op.reservation.prp_bytes + op.piggy_received,
          ByteSpan(fragment.data(), n));
      if (!st.ok()) return Fail(CqStatusFromStatus(st), queue_id);
    }
  } else {
    op.staged.insert(op.staged.end(), fragment.data(), fragment.data() + n);
  }
  op.piggy_received += n;

  const bool complete = received + n == op.value_size;
  if (cmd.final_fragment() != complete) {
    return Fail(CqStatus::kInvalidField, queue_id);
  }
  if (complete) {
    op.active = false;
    return FinishWrite(op);
  }
  return CqEntry{};
}

CqEntry KvController::FinishWrite(PendingWrite& op) {
  clock_->Advance(cost_->dev_kvs_ns);
  if (!config_.nand_io_enabled) {
    ++values_written_;
    value_bytes_written_ += op.value_size;
    writes_counter_->Increment();
    write_bytes_counter_->Add(op.value_size);
    return CqEntry{};
  }
  clock_->Advance(cost_->dev_persist_ns);

  Result<std::uint64_t> addr = op.has_dma
                                   ? vlog_->buffer().CommitDma(op.reservation)
                                   : vlog_->buffer().PackPiggybacked(op.staged);
  if (!addr.ok()) return FailOp(CqStatusFromStatus(addr.status()));

  Status st = lsm_->Put(KeyView(op.key.data(), op.key_len),
                        lsm::ValueRef{addr.value(), op.value_size, false});
  if (!st.ok()) return FailOp(CqStatusFromStatus(st));

  ++values_written_;
  value_bytes_written_ += op.value_size;
  writes_counter_->Increment();
  write_bytes_counter_->Add(op.value_size);
  return CqEntry{};
}

CqEntry KvController::HandleRead(const NvmeCommand& cmd) {
  if (!config_.nand_io_enabled) return FailOp(CqStatus::kInvalidField);
  clock_->Advance(cost_->dev_kvs_ns);
  std::array<std::uint8_t, kMaxKeySize> key_buf;
  const std::size_t key_len = cmd.CopyKeyTo({key_buf.data(), key_buf.size()});
  auto ref = lsm_->Get(KeyView(key_buf.data(), key_len));
  if (!ref.ok()) {
    return ref.status().IsNotFound() ? FailOp(CqStatus::kNotFound)
                                     : FailOp(CqStatus::kInternalError);
  }
  const std::uint32_t size = ref.value().size;
  if (cmd.prp.DmaBytes() < size) {
    return CqEntry{size, 0, CqStatus::kBufferTooSmall};
  }
  // Stage into a page-aligned bounce buffer (the DMA engine cannot source
  // from arbitrary byte offsets), then DMA to the host. Every DMA'd byte in
  // [0, size) is written by the vLog read, so reuse is safe.
  MutByteSpan bounce = Bounce(RoundUpPow2(size, kMemPageSize));
  const Status read_st = vlog_->Read(ref.value().addr, bounce.subspan(0, size));
  if (!read_st.ok()) return FailOp(CqStatusFromStatus(read_st));
  clock_->Advance(cost_->MemcpyCost(size));
  read_memcpy_bytes_->Add(size);
  if (!dma_->DeviceToHost(ByteSpan(bounce.data(), size), 0, cmd.prp).ok()) {
    return FailOp(CqStatus::kInternalError);
  }
  reads_counter_->Increment();
  return CqEntry{size, 0, CqStatus::kSuccess};
}

CqEntry KvController::HandleDelete(const NvmeCommand& cmd) {
  if (!config_.nand_io_enabled) return FailOp(CqStatus::kInvalidField);
  clock_->Advance(cost_->dev_kvs_ns);
  std::array<std::uint8_t, kMaxKeySize> key_buf;
  const std::size_t key_len = cmd.CopyKeyTo({key_buf.data(), key_buf.size()});
  if (!lsm_->Delete(KeyView(key_buf.data(), key_len)).ok()) {
    return FailOp(CqStatus::kInternalError);
  }
  return CqEntry{};
}

CqEntry KvController::HandleExists(const NvmeCommand& cmd) {
  if (!config_.nand_io_enabled) return FailOp(CqStatus::kInvalidField);
  clock_->Advance(cost_->dev_kvs_ns);
  std::array<std::uint8_t, kMaxKeySize> key_buf;
  const std::size_t key_len = cmd.CopyKeyTo({key_buf.data(), key_buf.size()});
  auto ref = lsm_->Get(KeyView(key_buf.data(), key_len));
  if (!ref.ok()) return FailOp(CqStatus::kNotFound);
  return CqEntry{ref.value().size, 0, CqStatus::kSuccess};
}

CqEntry KvController::HandleIterSeek(const NvmeCommand& cmd) {
  if (!config_.nand_io_enabled) return FailOp(CqStatus::kInvalidField);
  clock_->Advance(cost_->dev_kvs_ns);
  auto iter = lsm_->NewIterator();
  if (!iter.ok()) return FailOp(CqStatus::kInternalError);
  std::array<std::uint8_t, kMaxKeySize> key_buf;
  const std::size_t key_len = cmd.CopyKeyTo({key_buf.data(), key_buf.size()});
  iter.value()->Seek(KeyView(key_buf.data(), key_len));
  const std::uint32_t id = next_iterator_id_++;
  iterators_[id] = std::move(iter).value();
  return CqEntry{id, 0, CqStatus::kSuccess};
}

CqEntry KvController::HandleIterNextBatch(const NvmeCommand& cmd) {
  if (!config_.nand_io_enabled) return FailOp(CqStatus::kInvalidField);
  clock_->Advance(cost_->dev_kvs_ns);
  auto it = iterators_.find(cmd.iter_handle());
  if (it == iterators_.end()) return FailOp(CqStatus::kIteratorInvalid);
  lsm::LsmTree::Iterator& iter = *it->second;
  if (!iter.Valid()) return CqEntry{0, 0, CqStatus::kIteratorExhausted};

  const std::uint64_t capacity = cmd.prp.DmaBytes();
  MutByteSpan bounce = Bounce(capacity);
  std::size_t off = 0;
  std::uint32_t records = 0;
  while (iter.Valid()) {
    const std::string_view key = iter.key();
    const lsm::ValueRef& ref = iter.ref();
    const std::size_t needed = 1 + key.size() + 4 + ref.size;
    if (off + needed > capacity) break;
    bounce[off++] = static_cast<std::uint8_t>(key.size());
    std::copy(key.begin(), key.end(),
              bounce.begin() + static_cast<std::ptrdiff_t>(off));
    off += key.size();
    for (int i = 0; i < 4; ++i) {
      bounce[off++] = static_cast<std::uint8_t>(ref.size >> (8 * i));
    }
    const Status batch_read =
        vlog_->Read(ref.addr, bounce.subspan(off, ref.size));
    if (!batch_read.ok()) return FailOp(CqStatusFromStatus(batch_read));
    off += ref.size;
    ++records;
    iter.Next();
  }
  if (records == 0) {
    // A single record larger than the receive buffer: report its size.
    const std::size_t needed = 1 + iter.key().size() + 4 + iter.ref().size;
    return CqEntry{static_cast<std::uint32_t>(needed), 0,
                   CqStatus::kBufferTooSmall};
  }
  clock_->Advance(cost_->MemcpyCost(off));
  read_memcpy_bytes_->Add(off);
  if (!dma_->DeviceToHost(ByteSpan(bounce.data(), off), 0, cmd.prp).ok()) {
    return FailOp(CqStatus::kInternalError);
  }
  // Result: payload bytes; records decoded by the driver until exhausted.
  return CqEntry{static_cast<std::uint32_t>(off), 0, CqStatus::kSuccess};
}

CqEntry KvController::HandleIterClose(const NvmeCommand& cmd) {
  iterators_.erase(cmd.iter_handle());
  return CqEntry{};
}

CqEntry KvController::HandleFlush() {
  if (!config_.nand_io_enabled) return CqEntry{};
  const Status drained = vlog_->Drain();
  if (!drained.ok()) return FailOp(CqStatusFromStatus(drained));
  const Status ckpt = lsm_->Checkpoint(VlogTailCookie());
  if (!ckpt.ok()) return FailOp(CqStatusFromStatus(ckpt));
  // The checkpoint is durable: vLog segments cleaned since the previous
  // checkpoint are no longer referenced by any recoverable state.
  for (const auto& [first_lpn, count] : pending_vlog_trims_) {
    const Status trimmed = vlog_->TrimPages(first_lpn, count);
    if (!trimmed.ok()) return FailOp(CqStatusFromStatus(trimmed));
  }
  pending_vlog_trims_.clear();
  return CqEntry{};
}

std::uint64_t KvController::VlogTailCookie() const {
  return vlog_->buffer().window_base_addr() / kNandPageSize;
}

Result<std::uint64_t> KvController::CollectVlogSegment() {
  trace::SpanScope span(tracer_, trace::Category::kFtlGc);
  if (!config_.nand_io_enabled) {
    return Status::Unsupported("NAND I/O disabled");
  }
  // Advance the cursor over segments already cleaned out of order.
  while (collected_segments_.erase(vlog_gc_cursor_lpn_) > 0) {
    vlog_gc_cursor_lpn_ += config_.gc_segment_pages;
  }
  const std::uint64_t window_base_lpn =
      vlog_->buffer().window_base_addr() / kNandPageSize;
  if (vlog_gc_cursor_lpn_ >= window_base_lpn) return std::uint64_t{0};
  const std::uint64_t seg_pages = config_.gc_segment_pages;

  // Candidate segments: the next gc_scan_segments uncollected, fully
  // flushed segments starting at the cursor.
  std::vector<std::uint64_t> candidates;
  for (std::uint64_t start = vlog_gc_cursor_lpn_;
       start + seg_pages <= window_base_lpn &&
       candidates.size() < config_.gc_scan_segments;
       start += seg_pages) {
    if (!collected_segments_.contains(start)) candidates.push_back(start);
  }
  if (candidates.empty()) {
    // Tail shorter than a full segment: clean it directly.
    candidates.push_back(vlog_gc_cursor_lpn_);
  }

  // One liveness scan scores every candidate (cost-benefit cleaning): the
  // victim is the segment with the most dead bytes.
  std::vector<std::uint64_t> live_bytes(candidates.size(), 0);
  auto segment_of = [&](vlog::VlogAddr addr) -> int {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::uint64_t lo = candidates[i] * kNandPageSize;
      if (addr >= lo && addr < lo + seg_pages * kNandPageSize) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  BANDSLIM_RETURN_IF_ERROR(lsm_->ForEachLive(
      [&](std::string_view, const lsm::ValueRef& ref) {
        const int seg = segment_of(ref.addr);
        if (seg >= 0) live_bytes[static_cast<std::size_t>(seg)] += ref.size;
      }));

  std::size_t victim = 0;
  std::int64_t best_dead = -1;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::uint64_t used = 0;
    for (std::uint64_t p = 0; p < seg_pages; ++p) {
      used += vlog_->FlushedPageUsedBytes(candidates[i] + p);
    }
    const std::int64_t dead =
        static_cast<std::int64_t>(used) - static_cast<std::int64_t>(live_bytes[i]);
    if (dead > best_dead) {
      best_dead = dead;
      victim = i;
    }
  }
  const std::uint64_t victim_start = candidates[victim];
  const std::uint64_t victim_pages =
      std::min(seg_pages, window_base_lpn - victim_start);
  const std::uint64_t lo = victim_start * kNandPageSize;
  const std::uint64_t hi = lo + victim_pages * kNandPageSize;

  // Relocate every live value whose byte range intersects the victim —
  // values may straddle segment boundaries, and trimming a page under a
  // straddler's tail would corrupt it.
  std::vector<std::pair<std::string, lsm::ValueRef>> live;
  BANDSLIM_RETURN_IF_ERROR(lsm_->ForEachLive(
      [&](std::string_view key, const lsm::ValueRef& ref) {
        if (ref.addr < hi && ref.addr + ref.size > lo) {
          live.emplace_back(key, ref);
        }
      }));

  for (auto& [key, ref] : live) {
    Bytes value(ref.size);
    BANDSLIM_RETURN_IF_ERROR(vlog_->Read(ref.addr, MutByteSpan(value)));
    auto new_addr = vlog_->buffer().PackPiggybacked(ByteSpan(value));
    if (!new_addr.ok()) return new_addr.status();
    BANDSLIM_RETURN_IF_ERROR(
        lsm_->Put(key, lsm::ValueRef{new_addr.value(), ref.size, false}));
    gc_relocated_values_->Increment();
  }
  // Trim deferred to the next checkpoint (see HandleFlush): the values were
  // relocated, but only in device DRAM state until the manifest lands.
  pending_vlog_trims_.emplace_back(victim_start, victim_pages);
  if (victim_start == vlog_gc_cursor_lpn_) {
    vlog_gc_cursor_lpn_ += victim_pages;
  } else {
    collected_segments_.insert(victim_start);
  }
  ++vlog_gc_runs_;
  return static_cast<std::uint64_t>(live.size());
}

}  // namespace bandslim::controller
