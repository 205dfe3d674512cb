#include "driver/driver.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "nvme/command.h"

namespace bandslim::driver {

using nvme::CqEntry;
using nvme::CqStatus;
using nvme::NvmeCommand;
using nvme::Opcode;

namespace {

// A command with `opcode` on namespace 1.
NvmeCommand MakeCommand(Opcode opcode) {
  NvmeCommand cmd;
  cmd.set_opcode(opcode);
  cmd.set_nsid(1);
  return cmd;
}

// A keyed command. The key passed CheckKey (or is SEEK's empty start), and
// is viewed as bytes without copying through a temporary std::string.
NvmeCommand KeyCommand(Opcode opcode, std::string_view key) {
  NvmeCommand cmd = MakeCommand(opcode);
  cmd.set_key({reinterpret_cast<const std::uint8_t*>(key.data()), key.size()});
  return cmd;
}

std::uint8_t* PutBytes(std::uint8_t* p, const void* data, std::size_t n) {
  std::memcpy(p, data, n);
  return p + n;
}

std::uint8_t* PutU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

// The bulk-key request shared by GetBatch and DeleteBatch, repeated per
// key: [u8 klen][key]. Encoded into `*out` at exact size.
void EncodeKeyBatch(std::span<const std::string> keys, Bytes* out) {
  std::size_t size = 0;
  for (const std::string& key : keys) size += 1 + key.size();
  out->resize(size);
  std::uint8_t* p = out->data();
  for (const std::string& key : keys) {
    *p++ = static_cast<std::uint8_t>(key.size());
    p = PutBytes(p, key.data(), key.size());
  }
}

}  // namespace

Status CheckKey(std::string_view key) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key must be 1..16 bytes");
  }
  return Status::Ok();
}

Status CheckRecord(std::string_view key, ByteSpan value) {
  BANDSLIM_RETURN_IF_ERROR(CheckKey(key));
  if (value.empty()) {
    return Status::InvalidArgument("empty values are not supported");
  }
  return Status::Ok();
}

Status CheckBatch(std::span<const KvDriver::KvPair> batch) {
  for (const KvDriver::KvPair& kv : batch) {
    BANDSLIM_RETURN_IF_ERROR(CheckRecord(kv.key, ByteSpan(kv.value)));
  }
  return Status::Ok();
}

Status CheckBatch(std::span<const std::string> keys) {
  for (const std::string& key : keys) BANDSLIM_RETURN_IF_ERROR(CheckKey(key));
  return Status::Ok();
}

const char* MethodName(TransferMethod method) {
  switch (method) {
    case TransferMethod::kPrp: return "Baseline";
    case TransferMethod::kPiggyback: return "Piggyback";
    case TransferMethod::kHybrid: return "Hybrid";
    case TransferMethod::kAdaptive: return "Adaptive";
  }
  return "?";
}

KvDriver::KvDriver(nvme::NvmeTransport* transport, nvme::HostMemory* host,
                   DriverConfig config, trace::Tracer* tracer)
    : transport_(transport), host_(host), config_(config), tracer_(tracer) {
  // Pre-size the scratch buffers for a typical multi-fragment value so the
  // first ops do not grow them; larger values grow once and stick.
  cmd_scratch_.reserve(16);
  completion_scratch_.reserve(16);
  page_scratch_.reserve(8);
}

template <typename Body>
auto KvDriver::Traced(trace::OpType type, std::uint64_t payload_bytes,
                      Body&& body) {
  trace::OpScope op(tracer_, type, config_.queue_id, payload_bytes);
  auto result = body();
  op.set_ok(result.ok());
  return result;
}

Status KvDriver::StatusFromCq(const CqEntry& cqe) {
  switch (cqe.status) {
    case CqStatus::kSuccess: return Status::Ok();
    case CqStatus::kNotFound: return Status::NotFound();
    case CqStatus::kInvalidField: return Status::InvalidArgument("device: invalid field");
    case CqStatus::kBufferTooSmall: return Status::InvalidArgument("device: buffer too small");
    case CqStatus::kIteratorInvalid: return Status::InvalidArgument("device: bad iterator");
    case CqStatus::kIteratorExhausted: return Status::NotFound("iterator exhausted");
    case CqStatus::kOutOfSpace: return Status::OutOfSpace("device full");
    case CqStatus::kInternalError: return Status::IoError("device internal error");
    case CqStatus::kMediaError: return Status::MediaError("device media error");
    case CqStatus::kTimedOut: return Status::TimedOut("command timed out");
    case CqStatus::kBusy: return Status::Busy("queue admission shed");
  }
  return Status::IoError("unknown CQ status");
}

KvDriver::Decision KvDriver::Decide(std::uint64_t size) const {
  switch (config_.method) {
    case TransferMethod::kPrp:
      return Decision::kPrp;
    case TransferMethod::kPiggyback:
      return Decision::kPiggyback;
    case TransferMethod::kHybrid:
      // A hybrid transfer needs at least one full page plus a remainder.
      return (size > kMemPageSize && size % kMemPageSize != 0)
                 ? Decision::kHybrid
                 : Decision::kPrp;
    case TransferMethod::kAdaptive: {
      if (static_cast<double>(size) <=
          config_.alpha * static_cast<double>(config_.threshold1)) {
        return Decision::kPiggyback;
      }
      const std::uint64_t remainder = size % kMemPageSize;
      if (size > kMemPageSize && remainder != 0 &&
          static_cast<double>(remainder) <=
              config_.beta * static_cast<double>(config_.threshold2)) {
        return Decision::kHybrid;
      }
      return Decision::kPrp;
    }
  }
  return Decision::kPrp;
}

void KvDriver::AppendTrailingCommands(ByteSpan rest,
                                      std::vector<NvmeCommand>* out) {
  std::size_t off = 0;
  while (off < rest.size()) {
    const std::size_t n =
        std::min(kTransferCmdPiggybackCapacity, rest.size() - off);
    NvmeCommand cmd = MakeCommand(Opcode::kKvTransfer);
    nvme::codec::SetTransferPayload(cmd, rest.subspan(off, n));
    off += n;
    cmd.set_final_fragment(off == rest.size());
    out->push_back(cmd);
  }
}

Status KvDriver::SendTrailing(ByteSpan rest) {
  cmd_scratch_.clear();
  AppendTrailingCommands(rest, &cmd_scratch_);
  for (const NvmeCommand& cmd : cmd_scratch_) {
    BANDSLIM_RETURN_IF_ERROR(StatusFromCq(transport_->Submit(config_.queue_id, cmd)));
  }
  return Status::Ok();
}

Status KvDriver::SendPipelined(NvmeCommand head, ByteSpan rest) {
  cmd_scratch_.clear();
  cmd_scratch_.push_back(std::move(head));
  AppendTrailingCommands(rest, &cmd_scratch_);
  transport_->SubmitPipelined(config_.queue_id,
                              std::span<const NvmeCommand>(cmd_scratch_),
                              &completion_scratch_);
  for (const CqEntry& cqe : completion_scratch_) {
    BANDSLIM_RETURN_IF_ERROR(StatusFromCq(cqe));
  }
  return Status::Ok();
}

Status KvDriver::PutPiggyback(std::string_view key, ByteSpan value) {
  NvmeCommand cmd = KeyCommand(Opcode::kKvWrite, key);
  cmd.set_value_size(static_cast<std::uint32_t>(value.size()));
  const std::size_t head =
      std::min(kWriteCmdPiggybackCapacity, value.size());
  nvme::codec::SetWritePiggyback(cmd, value.subspan(0, head));
  cmd.set_final_fragment(head == value.size());
  if (config_.pipelined_submission) {
    return SendPipelined(std::move(cmd), value.subspan(head));
  }
  BANDSLIM_RETURN_IF_ERROR(StatusFromCq(transport_->Submit(config_.queue_id, cmd)));
  if (head < value.size()) {
    BANDSLIM_RETURN_IF_ERROR(SendTrailing(value.subspan(head)));
  }
  return Status::Ok();
}

Status KvDriver::PutPrp(std::string_view key, ByteSpan value) {
  const std::size_t pages = CeilDiv(value.size(), kMemPageSize);
  host_->AllocatePagesInto(pages, &page_scratch_);
  BANDSLIM_RETURN_IF_ERROR(host_->WriteToPages(page_scratch_, value));
  NvmeCommand cmd = KeyCommand(Opcode::kKvWrite, key);
  cmd.set_value_size(static_cast<std::uint32_t>(value.size()));
  cmd.set_final_fragment(true);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(page_scratch_));
  Status st = StatusFromCq(transport_->Submit(config_.queue_id, cmd));
  host_->FreePages(page_scratch_);
  return st;
}

Status KvDriver::PutHybrid(std::string_view key, ByteSpan value) {
  const std::size_t prp_bytes = RoundDownPow2(value.size(), kMemPageSize);
  assert(prp_bytes > 0 && prp_bytes < value.size());
  host_->AllocatePagesInto(prp_bytes / kMemPageSize, &page_scratch_);
  BANDSLIM_RETURN_IF_ERROR(
      host_->WriteToPages(page_scratch_, value.subspan(0, prp_bytes)));
  NvmeCommand cmd = KeyCommand(Opcode::kKvWrite, key);
  cmd.set_value_size(static_cast<std::uint32_t>(value.size()));
  cmd.set_final_fragment(false);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(page_scratch_));
  Status st;
  if (config_.pipelined_submission) {
    st = SendPipelined(std::move(cmd), value.subspan(prp_bytes));
  } else {
    st = StatusFromCq(transport_->Submit(config_.queue_id, cmd));
    if (st.ok()) st = SendTrailing(value.subspan(prp_bytes));
  }
  host_->FreePages(page_scratch_);
  return st;
}

Status KvDriver::Put(std::string_view key, ByteSpan value) {
  return Traced(trace::OpType::kPut, value.size(), [&] {
    BANDSLIM_RETURN_IF_ERROR(CheckRecord(key, value));
    ++puts_issued_;
    switch (Decide(value.size())) {
      case Decision::kPiggyback: return PutPiggyback(key, value);
      case Decision::kPrp: return PutPrp(key, value);
      case Decision::kHybrid: return PutHybrid(key, value);
    }
    return Status::InvalidArgument("unreachable");
  });
}

Status KvDriver::PutBatch(std::span<const KvPair> batch) {
  std::uint64_t payload_bytes = 0;
  for (const KvPair& kv : batch) payload_bytes += kv.value.size();
  return Traced(trace::OpType::kPutBatch, payload_bytes,
                [&] { return PutBatchImpl(batch); });
}

nvme::CqEntry KvDriver::SubmitBulk(Opcode opcode, std::size_t pages) {
  assert(pages * kMemPageSize >= bulk_scratch_.size());
  host_->AllocatePagesInto(pages, &page_scratch_);
  // Fresh pages that hold the payload: staging cannot fail.
  [[maybe_unused]] const Status staged =
      host_->WriteToPages(page_scratch_, ByteSpan(bulk_scratch_));
  assert(staged.ok());
  NvmeCommand cmd = MakeCommand(opcode);
  cmd.set_value_size(static_cast<std::uint32_t>(bulk_scratch_.size()));
  if (opcode == Opcode::kKvBulkWrite) cmd.set_final_fragment(true);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(page_scratch_));
  return transport_->Submit(config_.queue_id, cmd);
}

Status KvDriver::PutBatchImpl(std::span<const KvPair> batch) {
  if (batch.empty()) return Status::Ok();
  BANDSLIM_RETURN_IF_ERROR(CheckBatch(batch));
  // Wire format, repeated per record: [u8 klen][key][u32 vsize][value].
  std::size_t size = 0;
  for (const KvPair& kv : batch) size += 5 + kv.key.size() + kv.value.size();
  bulk_scratch_.resize(size);
  std::uint8_t* p = bulk_scratch_.data();
  for (const KvPair& kv : batch) {
    *p++ = static_cast<std::uint8_t>(kv.key.size());
    p = PutBytes(p, kv.key.data(), kv.key.size());
    p = PutU32(p, static_cast<std::uint32_t>(kv.value.size()));
    p = PutBytes(p, kv.value.data(), kv.value.size());
  }
  const CqEntry cqe =
      SubmitBulk(Opcode::kKvBulkWrite, CeilDiv(size, kMemPageSize));
  host_->FreePages(page_scratch_);
  puts_issued_ += batch.size();
  return StatusFromCq(cqe);
}

Result<std::uint32_t> KvDriver::SubmitRead(NvmeCommand cmd, Bytes* payload,
                                           std::size_t initial_pages) {
  std::size_t pages = initial_pages;
  for (int attempt = 0; attempt < 4; ++attempt) {
    host_->AllocatePagesInto(pages, &page_scratch_);
    nvme::codec::SetPrpPointers(cmd, nvme::PrpList(page_scratch_));
    const CqEntry cqe = transport_->Submit(config_.queue_id, cmd);
    if (cqe.status == CqStatus::kBufferTooSmall) {
      host_->FreePages(page_scratch_);
      pages = CeilDiv(cqe.result, kMemPageSize);
      continue;
    }
    Status st = StatusFromCq(cqe);
    if (!st.ok()) {
      host_->FreePages(page_scratch_);
      return st;
    }
    payload->resize(cqe.result);
    st = host_->ReadFromPages(page_scratch_, MutByteSpan(*payload));
    host_->FreePages(page_scratch_);
    BANDSLIM_RETURN_IF_ERROR(st);
    return cqe.result;
  }
  return Status::IoError("receive buffer negotiation failed");
}

Result<std::vector<KvDriver::BatchGetResult>> KvDriver::GetBatch(
    std::span<const std::string> keys) {
  std::vector<BatchGetResult> results(keys.size());
  BANDSLIM_RETURN_IF_ERROR(GetBatchInto(keys, {}, results));
  return results;
}

Status KvDriver::GetBatchInto(std::span<const std::string> keys,
                              std::span<const std::size_t> at,
                              std::span<BatchGetResult> results) {
  return Traced(trace::OpType::kGetBatch, 0,
                [&] { return GetBatchImpl(keys, at, results); });
}

Status KvDriver::GetBatchImpl(std::span<const std::string> keys,
                              std::span<const std::size_t> at,
                              std::span<BatchGetResult> results) {
  assert(at.empty() ? results.size() >= keys.size() : at.size() == keys.size());
  if (keys.empty()) return Status::Ok();
  BANDSLIM_RETURN_IF_ERROR(CheckBatch(keys));
  EncodeKeyBatch(keys, &bulk_scratch_);

  // The PRP buffer is used in both directions: the device fetches the key
  // list from it, then overwrites it with the response. Renegotiate its
  // size on kBufferTooSmall like any PRP read.
  std::size_t pages = CeilDiv(bulk_scratch_.size(), kMemPageSize);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const CqEntry cqe = SubmitBulk(Opcode::kKvBulkRead, pages);
    if (cqe.status == CqStatus::kBufferTooSmall) {
      host_->FreePages(page_scratch_);
      pages = std::max<std::size_t>(pages, CeilDiv(cqe.result, kMemPageSize));
      continue;
    }
    Status st = StatusFromCq(cqe);
    if (!st.ok()) {
      host_->FreePages(page_scratch_);
      return st;
    }
    Bytes& payload = bulk_scratch_;
    payload.resize(cqe.result);
    st = host_->ReadFromPages(page_scratch_, MutByteSpan(payload));
    host_->FreePages(page_scratch_);
    BANDSLIM_RETURN_IF_ERROR(st);
    // Decode: [u8 found][u32 vsize][value]* — one record per requested key.
    std::size_t off = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (off + 5 > payload.size()) {
        return Status::Corruption("truncated bulk-read response");
      }
      BatchGetResult& r = results[at.empty() ? i : at[i]];
      r.found = payload[off++] != 0;
      std::uint32_t vsize = 0;
      for (int b = 0; b < 4; ++b) {
        vsize |= static_cast<std::uint32_t>(payload[off++]) << (8 * b);
      }
      if (off + vsize > payload.size()) {
        return Status::Corruption("bulk-read record size mismatch");
      }
      r.value.assign(payload.begin() + static_cast<std::ptrdiff_t>(off),
                     payload.begin() + static_cast<std::ptrdiff_t>(off + vsize));
      off += vsize;
    }
    return Status::Ok();
  }
  return Status::IoError("receive buffer negotiation failed");
}

Result<std::uint32_t> KvDriver::DeleteBatch(std::span<const std::string> keys) {
  return Traced(trace::OpType::kDeleteBatch, 0,
                [&] { return DeleteBatchImpl(keys); });
}

Result<std::uint32_t> KvDriver::DeleteBatchImpl(
    std::span<const std::string> keys) {
  if (keys.empty()) return 0u;
  BANDSLIM_RETURN_IF_ERROR(CheckBatch(keys));
  EncodeKeyBatch(keys, &bulk_scratch_);
  const CqEntry cqe = SubmitBulk(Opcode::kKvBulkDelete,
                                 CeilDiv(bulk_scratch_.size(), kMemPageSize));
  host_->FreePages(page_scratch_);
  BANDSLIM_RETURN_IF_ERROR(StatusFromCq(cqe));
  return cqe.result;
}

Status KvDriver::GetInto(std::string_view key, Bytes* value) {
  return Traced(trace::OpType::kGet, 0, [&] {
    BANDSLIM_RETURN_IF_ERROR(CheckKey(key));
    return SubmitRead(KeyCommand(Opcode::kKvRead, key), value).status();
  });
}

Result<Bytes> KvDriver::Get(std::string_view key) {
  Bytes value;
  BANDSLIM_RETURN_IF_ERROR(GetInto(key, &value));
  return value;
}

Status KvDriver::Delete(std::string_view key) {
  return Traced(trace::OpType::kDelete, 0, [&] {
    BANDSLIM_RETURN_IF_ERROR(CheckKey(key));
    return StatusFromCq(transport_->Submit(
        config_.queue_id, KeyCommand(Opcode::kKvDelete, key)));
  });
}

Result<std::uint32_t> KvDriver::Exists(std::string_view key) {
  return Traced(trace::OpType::kExists, 0, [&]() -> Result<std::uint32_t> {
    BANDSLIM_RETURN_IF_ERROR(CheckKey(key));
    const CqEntry cqe = transport_->Submit(
        config_.queue_id, KeyCommand(Opcode::kKvExists, key));
    BANDSLIM_RETURN_IF_ERROR(StatusFromCq(cqe));
    return cqe.result;
  });
}

Status KvDriver::Flush() {
  return Traced(trace::OpType::kFlush, 0, [&] {
    return StatusFromCq(
        transport_->Submit(config_.queue_id, MakeCommand(Opcode::kKvFlush)));
  });
}

Result<KvDriver::Iterator> KvDriver::Seek(std::string_view from) {
  return Traced(trace::OpType::kSeek, 0, [&]() -> Result<Iterator> {
    if (!from.empty()) BANDSLIM_RETURN_IF_ERROR(CheckKey(from));
    const CqEntry cqe = transport_->Submit(
        config_.queue_id, KeyCommand(Opcode::kKvIterSeek, from));
    BANDSLIM_RETURN_IF_ERROR(StatusFromCq(cqe));
    Iterator iter(this, cqe.result);
    BANDSLIM_RETURN_IF_ERROR(iter.Next());
    return iter;
  });
}

Status KvDriver::Iterator::FetchBatch() {
  if (exhausted_) return Status::Ok();
  NvmeCommand cmd = MakeCommand(Opcode::kKvIterNextBatch);
  cmd.set_iter_handle(handle_);
  Bytes payload;
  auto bytes = driver_->SubmitRead(std::move(cmd), &payload,
                                   /*initial_pages=*/8);
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) {
      exhausted_ = true;  // Device iterator drained.
      return Status::Ok();
    }
    return bytes.status();
  }
  // Decode records: [u8 key_len][key][u32 value_size][value]*.
  std::size_t off = 0;
  while (off < payload.size()) {
    const std::size_t klen = payload[off++];
    if (klen == 0 || off + klen + 4 > payload.size()) {
      return Status::Corruption("truncated iterator record");
    }
    std::string key(reinterpret_cast<const char*>(payload.data() + off), klen);
    off += klen;
    std::uint32_t vsize = 0;
    for (int i = 0; i < 4; ++i) {
      vsize |= static_cast<std::uint32_t>(payload[off++]) << (8 * i);
    }
    if (off + vsize > payload.size()) {
      return Status::Corruption("iterator record size mismatch");
    }
    pending_.emplace_back(
        std::move(key),
        Bytes(payload.begin() + static_cast<std::ptrdiff_t>(off),
              payload.begin() + static_cast<std::ptrdiff_t>(off + vsize)));
    off += vsize;
  }
  return Status::Ok();
}

Status KvDriver::Iterator::Next() {
  if (driver_ == nullptr) return Status::InvalidArgument("closed iterator");
  trace::OpScope op(driver_->tracer_, trace::OpType::kNext,
                    driver_->config_.queue_id);
  if (pending_.empty()) {
    BANDSLIM_RETURN_IF_ERROR(FetchBatch());
  }
  if (pending_.empty()) {
    valid_ = false;
    return Status::Ok();  // Exhausted.
  }
  key_ = std::move(pending_.front().first);
  value_ = std::move(pending_.front().second);
  pending_.pop_front();
  valid_ = true;
  return Status::Ok();
}

void KvDriver::Iterator::Close() {
  if (driver_ == nullptr) return;
  trace::OpScope op(driver_->tracer_, trace::OpType::kOther,
                    driver_->config_.queue_id);
  NvmeCommand cmd = MakeCommand(Opcode::kKvIterClose);
  cmd.set_iter_handle(handle_);
  driver_->transport_->Submit(driver_->config_.queue_id, cmd);
  driver_ = nullptr;
  valid_ = false;
}

KvDriver::Iterator::~Iterator() { Close(); }

KvDriver::Iterator::Iterator(Iterator&& other) noexcept
    : driver_(other.driver_),
      handle_(other.handle_),
      valid_(other.valid_),
      exhausted_(other.exhausted_),
      key_(std::move(other.key_)),
      value_(std::move(other.value_)),
      pending_(std::move(other.pending_)) {
  other.driver_ = nullptr;
  other.valid_ = false;
}

KvDriver::Iterator& KvDriver::Iterator::operator=(Iterator&& other) noexcept {
  if (this != &other) {
    Close();
    driver_ = other.driver_;
    handle_ = other.handle_;
    valid_ = other.valid_;
    exhausted_ = other.exhausted_;
    key_ = std::move(other.key_);
    value_ = std::move(other.value_);
    pending_ = std::move(other.pending_);
    other.driver_ = nullptr;
    other.valid_ = false;
  }
  return *this;
}

}  // namespace bandslim::driver
