// NVMe key-value command codec, following Figure 6 of the paper.
//
// A submission queue entry is 16 dwords (64 bytes):
//   dw0        opcode | flags (P = piggybacked payload, F = final fragment) | cid
//   dw1        namespace id
//   dw2-3      key bytes [0, 8)
//   dw4-5      metadata pointer (PRP)        -- piggyback area when P is set
//   dw6-9      PRP entry 1, PRP entry 2      -- piggyback area when P is set
//   dw10       value size (bytes)
//   dw11       key size (byte 0) | 2 reserved bytes + 1 vendor option byte
//                                             -- those 3 bytes piggyback too
//   dw12-13    reserved                       -- piggyback area when P is set
//   dw14-15    key bytes [8, 16)
//
// * The BandSlim *write* command (opcode kKvWrite, P set) repurposes
//   dw4-9 (24 B) + 3 spare bytes of dw11 + dw12-13 (8 B) = 35 bytes of
//   inline value payload (Section 3.2, Figure 6a).
// * The BandSlim *transfer* command (opcode kKvTransfer) carries value
//   fragments in every dword except dw0/dw1: 56 bytes (Figure 6b).
//
// Simulation note: PRP1/PRP2 are mirrored into dw6-9 for structural
// fidelity, but the authoritative page list rides in NvmeCommand::prp so
// the DMA engine does not need a reverse page-table. PRP *list page*
// fetch traffic for >2-page payloads is still accounted (see PrpList).
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"
#include "nvme/prp.h"

namespace bandslim::nvme {

enum class Opcode : std::uint8_t {
  kInvalid = 0x00,
  kKvWrite = 0xC1,     // KV store; PRP payload and/or <=35 B inline payload.
  kKvTransfer = 0xC2,  // Trailing inline value fragment (56 B payload).
  kKvRead = 0xC3,      // KV retrieve; PRP describes the receive buffer.
  kKvDelete = 0xC4,
  kKvIterSeek = 0xC5,  // Position an iterator at the first key >= seek key.
  kKvFlush = 0xC7,     // Drain device buffers / MemTable to NAND.
  kKvExists = 0xC8,
  kKvIterClose = 0xC9,
  // Host-side-batching comparator (the Dotori / KV-CSD approach the paper
  // contrasts in Section 1): one PRP payload carries many packed records.
  kKvBulkWrite = 0xCA,
  // Range-query batching (after [22]): fills the PRP receive buffer with as
  // many (key, value) records as fit, instead of one record per command.
  kKvIterNextBatch = 0xCB,
  // Bulk GET/DELETE counterparts of kKvBulkWrite: the PRP payload carries
  // [u8 klen][key]* . BulkRead reuses the same PRP buffer for its response
  // ([u8 found][u32 vsize][value]* , renegotiated on kBufferTooSmall);
  // BulkDelete returns the number of keys removed in the CQ result.
  kKvBulkRead = 0xCC,
  kKvBulkDelete = 0xCD,
};

// Completion queue entry status codes (vendor-specific command set).
enum class CqStatus : std::uint16_t {
  kSuccess = 0,
  kNotFound,
  kInvalidField,
  kBufferTooSmall,  // result carries the required byte count.
  kIteratorInvalid,
  kIteratorExhausted,
  kOutOfSpace,
  kInternalError,
  kMediaError,  // NAND failure survived FTL retry/remap (SCT 0x2).
  // Synthesized by the *host* transport when a command never completes
  // within its watchdog window; no device ever posts this on the wire.
  kTimedOut,
  // Synthesized by the *host* transport when per-queue admission control
  // sheds the submission before the doorbell; nothing reaches the device.
  kBusy,
};

struct CqEntry {
  std::uint32_t result = 0;  // Command-specific (e.g. value size for reads).
  std::uint16_t cid = 0;
  CqStatus status = CqStatus::kSuccess;

  bool ok() const { return status == CqStatus::kSuccess; }

  // NVMe status field split, for hosts that dispatch on SCT before SC.
  // Vendor KV statuses ride in the command-specific type (0x1); media
  // failures report SCT 0x2 like a real drive; host-synthesized statuses
  // (watchdog timeout, admission-control busy) use path-related 0x3 and
  // stay distinguishable by SC.
  std::uint8_t status_code_type() const {
    switch (status) {
      case CqStatus::kSuccess: return 0x0;
      case CqStatus::kMediaError: return 0x2;
      case CqStatus::kTimedOut: return 0x3;
      case CqStatus::kBusy: return 0x3;
      default: return 0x1;
    }
  }
  std::uint8_t status_code() const {
    return static_cast<std::uint8_t>(static_cast<std::uint16_t>(status) & 0xFF);
  }
};

struct NvmeCommand {
  std::array<std::uint32_t, 16> dw{};
  PrpList prp;  // Simulation-side carrier for the PRP-described pages.

  // --- dw0 -----------------------------------------------------------------
  Opcode opcode() const { return static_cast<Opcode>(dw[0] & 0xFF); }
  void set_opcode(Opcode op) {
    dw[0] = (dw[0] & ~0xFFu) | static_cast<std::uint32_t>(op);
  }
  // P flag: inline (piggybacked) payload present in this command.
  bool piggybacked() const { return (dw[0] >> 8) & 1; }
  void set_piggybacked(bool v) {
    dw[0] = (dw[0] & ~(1u << 8)) | (static_cast<std::uint32_t>(v) << 8);
  }
  // F flag: no trailing transfer commands follow (the value is complete).
  bool final_fragment() const { return (dw[0] >> 9) & 1; }
  void set_final_fragment(bool v) {
    dw[0] = (dw[0] & ~(1u << 9)) | (static_cast<std::uint32_t>(v) << 9);
  }
  std::uint16_t cid() const { return static_cast<std::uint16_t>(dw[0] >> 16); }
  void set_cid(std::uint16_t cid) {
    dw[0] = (dw[0] & 0xFFFFu) | (static_cast<std::uint32_t>(cid) << 16);
  }

  // --- dw1 -----------------------------------------------------------------
  std::uint32_t nsid() const { return dw[1]; }
  void set_nsid(std::uint32_t v) { dw[1] = v; }

  // --- key (dw2-3 + dw14-15) ------------------------------------------------
  void set_key(ByteSpan key);
  Bytes key() const;
  // Allocation-free variant: copies the key into `out` (which must hold at
  // least kMaxKeySize bytes) and returns the key length. The controller's
  // hot path uses this with a stack array instead of key().
  std::size_t CopyKeyTo(MutByteSpan out) const;
  std::size_t key_size() const { return dw[11] & 0xFF; }

  // --- value size (dw10) ------------------------------------------------------
  std::uint32_t value_size() const { return dw[10]; }
  void set_value_size(std::uint32_t v) { dw[10] = v; }

  // --- iterator handle (dw12, only used by iterator commands) ---------------
  std::uint32_t iter_handle() const { return dw[12]; }
  void set_iter_handle(std::uint32_t h) { dw[12] = h; }

  // Raw byte view of the 64-byte SQ entry.
  MutByteSpan raw_bytes() {
    return {reinterpret_cast<std::uint8_t*>(dw.data()), kNvmeCommandSize};
  }
  ByteSpan raw_bytes() const {
    return {reinterpret_cast<const std::uint8_t*>(dw.data()), kNvmeCommandSize};
  }
};

static_assert(sizeof(std::array<std::uint32_t, 16>) == kNvmeCommandSize);

// Inline-payload (piggyback) codecs for the two BandSlim command layouts.
namespace codec {

// Writes up to kWriteCmdPiggybackCapacity (35) bytes into the write
// command's repurposed fields; returns bytes consumed from `payload`.
std::size_t SetWritePiggyback(NvmeCommand& cmd, ByteSpan payload);
// Extracts `n` piggybacked bytes from a write command.
void GetWritePiggyback(const NvmeCommand& cmd, MutByteSpan out);

// Same for the transfer command's 56-byte payload area.
std::size_t SetTransferPayload(NvmeCommand& cmd, ByteSpan payload);
void GetTransferPayload(const NvmeCommand& cmd, MutByteSpan out);

// Mirrors the first two PRP pages into dw6-9 (structural fidelity only).
void SetPrpPointers(NvmeCommand& cmd, const PrpList& prp);

// Number of NVMe commands a pure piggyback transfer of `value_size` bytes
// needs: one write command (35 B) plus 56 B transfer commands (Section 3.2).
std::uint64_t PiggybackCommandCount(std::uint64_t value_size);

}  // namespace codec

}  // namespace bandslim::nvme
