// Standalone layer replays: the stream's keys and value sizes sent to one
// layer at a time, each on its own clock and registry, timed per call.
//   lsm.put_host_ns / lsm.get_host_ns  LsmTree over its own FTL + NAND
//   buffer.pack_host_ns                NandPageBuffer pack or reserve+commit
//   nvme.codec_host_ns                 piggyback encode + decode per value
//   nand.program_host_ns / read_host_ns  NandFlash page program / read
#include <algorithm>

#include "buffer/page_buffer.h"
#include "ftl/ftl.h"
#include "lsm/lsm_tree.h"
#include "nand/nand_flash.h"
#include "nvme/command.h"
#include "sim/cost_model.h"
#include "workload.h"

namespace perfbench {

using bandslim::ByteSpan;
using bandslim::Bytes;
using bandslim::MutByteSpan;

namespace {

struct Write {
  std::uint32_t key;
  std::uint32_t size;
};

// Every write of the stream in issue order (preload first), and every key
// it reads; a write-only stream reads its read-back sample instead.
void Flatten(const Stream& s, std::vector<Write>* writes,
             std::vector<std::uint32_t>* reads) {
  for (std::uint32_t k = 0; k < s.preload_sizes.size(); ++k) {
    writes->push_back({k, s.preload_sizes[k]});
  }
  for (const Op& op : s.ops) {
    const std::uint16_t n = op.batch_len == 0 ? 1 : op.batch_len;
    for (std::uint16_t j = 0; j < n; ++j) {
      const std::uint32_t key =
          op.batch_len == 0 ? op.key : s.batch_keys[op.key + j];
      if (op.kind == OpKind::kPut || op.kind == OpKind::kPutBatch) {
        writes->push_back({key, op.value_size});
      } else {
        reads->push_back(key);
      }
    }
  }
  if (reads->empty()) *reads = s.readback;
}

double PerCall(double ns, std::size_t calls) {
  return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
}

// Each replay returns the number of calls that failed.
std::uint64_t ReplayLsm(const Stream& s, const std::vector<Write>& writes,
                        const std::vector<std::uint32_t>& reads, Metrics* out) {
  const bandslim::KvSsdOptions o = BenchDeviceOptions();
  bandslim::sim::VirtualClock clock;
  bandslim::stats::MetricsRegistry metrics;
  bandslim::nand::NandFlash nand(o.geometry, &clock, &o.cost, &metrics);
  bandslim::ftl::PageFtl ftl(&nand, &metrics, o.ftl);
  bandslim::lsm::LsmTree lsm(&ftl, &metrics, o.lsm);
  std::uint64_t addr = 0, errors = 0;
  const auto t0 = WallClock::now();
  for (const Write& w : writes) {
    errors += lsm.Put(s.keys[w.key], {addr, w.size, false}).ok() ? 0 : 1;
    addr += w.size;
  }
  const auto t1 = WallClock::now();
  for (const std::uint32_t k : reads) errors += lsm.Get(s.keys[k]).ok() ? 0 : 1;
  const auto t2 = WallClock::now();
  (*out)["lsm.put_host_ns"] = PerCall(NsBetween(t0, t1), writes.size());
  (*out)["lsm.get_host_ns"] = PerCall(NsBetween(t1, t2), reads.size());
  return errors;
}

std::uint64_t ReplayBuffer(const Stream& s, const std::vector<Write>& writes,
                           Metrics* out) {
  const bandslim::KvSsdOptions o = BenchDeviceOptions();
  bandslim::sim::VirtualClock clock;
  bandslim::stats::MetricsRegistry metrics;
  bandslim::buffer::NandPageBuffer buf(
      o.buffer, &clock, &o.cost, &metrics,
      [](std::uint64_t, ByteSpan, std::uint32_t) {
        return bandslim::Status::Ok();
      });
  Bytes value(s.max_value_size, 0x5a);
  // The adaptive driver's choice for sub-page values: piggyback up to
  // threshold1, page-unit DMA above it.
  const std::uint32_t piggyback_max = o.driver.threshold1;
  std::uint64_t errors = 0;
  const auto t0 = WallClock::now();
  for (const Write& w : writes) {
    if (w.size <= piggyback_max) {
      errors += buf.PackPiggybacked(ByteSpan(value.data(), w.size)).ok() ? 0 : 1;
    } else {
      const std::uint64_t pages =
          (w.size + bandslim::kMemPageSize - 1) / bandslim::kMemPageSize;
      auto r = buf.ReserveDma(pages * bandslim::kMemPageSize, w.size);
      errors += r.ok() && buf.CommitDma(r.value()).ok() ? 0 : 1;
    }
  }
  (*out)["buffer.pack_host_ns"] =
      PerCall(NsBetween(t0, WallClock::now()), writes.size());
  return errors;
}

std::uint64_t ReplayCodec(const Stream& s, const std::vector<Write>& writes,
                          Metrics* out) {
  namespace codec = bandslim::nvme::codec;
  Bytes value(s.max_value_size);
  FillValue(MutByteSpan(value), 1);
  Bytes decoded(s.max_value_size);
  bandslim::nvme::NvmeCommand write_cmd, transfer_cmd;
  std::uint64_t mismatches = 0;
  const auto t0 = WallClock::now();
  for (const Write& w : writes) {
    const ByteSpan v(value.data(), w.size);
    std::size_t off = codec::SetWritePiggyback(write_cmd, v);
    codec::GetWritePiggyback(write_cmd, MutByteSpan(decoded.data(), off));
    while (off < w.size) {
      const std::size_t n = codec::SetTransferPayload(transfer_cmd, v.subspan(off));
      codec::GetTransferPayload(transfer_cmd,
                                MutByteSpan(decoded.data() + off, n));
      off += n;
    }
    mismatches += decoded[w.size - 1] == value[w.size - 1] ? 0 : 1;
  }
  (*out)["nvme.codec_host_ns"] =
      PerCall(NsBetween(t0, WallClock::now()), writes.size());
  return mismatches;
}

std::uint64_t ReplayNand(std::uint64_t pages, Metrics* out) {
  const bandslim::KvSsdOptions o = BenchDeviceOptions();
  bandslim::sim::VirtualClock clock;
  bandslim::stats::MetricsRegistry metrics;
  bandslim::nand::NandFlash nand(o.geometry, &clock, &o.cost, &metrics);
  Bytes page(bandslim::kNandPageSize);
  FillValue(MutByteSpan(page), 7);
  std::uint64_t errors = 0;
  const auto t0 = WallClock::now();
  for (std::uint64_t p = 0; p < pages; ++p) {
    errors += nand.Program(p, ByteSpan(page), /*retain_data=*/true).ok() ? 0 : 1;
  }
  const auto t1 = WallClock::now();
  std::shared_ptr<const Bytes> view;
  for (std::uint64_t p = 0; p < pages; ++p) {
    errors += nand.ReadView(p, &view).ok() ? 0 : 1;
  }
  const auto t2 = WallClock::now();
  (*out)["nand.program_host_ns"] = PerCall(NsBetween(t0, t1), pages);
  (*out)["nand.read_host_ns"] = PerCall(NsBetween(t1, t2), pages);
  return errors;
}

}  // namespace

std::string ReplayLayers(const Stream& stream, std::uint64_t nand_pages,
                         Metrics* out) {
  std::vector<Write> writes;
  std::vector<std::uint32_t> reads;
  Flatten(stream, &writes, &reads);
  std::string problem;
  if (ReplayLsm(stream, writes, reads, out) != 0) problem += " lsm";
  if (ReplayBuffer(stream, writes, out) != 0) problem += " buffer";
  if (ReplayCodec(stream, writes, out) != 0) problem += " codec";
  // As many pages as the workload programmed, within [1 Ki, 16 Ki].
  if (ReplayNand(std::clamp<std::uint64_t>(nand_pages, 1024, 16384), out) != 0) {
    problem += " nand";
  }
  return problem.empty() ? "" : "layer replay failed:" + problem;
}

}  // namespace perfbench
