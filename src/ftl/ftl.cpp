#include "ftl/ftl.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"

namespace bandslim::ftl {

PageFtl::PageFtl(nand::NandFlash* nand, stats::MetricsRegistry* metrics,
                 FtlConfig config, trace::Tracer* tracer,
                 telemetry::EventLog* event_log)
    : nand_(nand),
      tracer_(tracer),
      event_log_(event_log),
      config_(config),
      blocks_(nand->geometry().total_blocks()),
      lanes_(config.stripe_across_dies ? nand->geometry().dies() : 1),
      gc_relocations_(metrics->RegisterCounter("ftl.gc_relocated_pages")),
      remaps_counter_(metrics->RegisterCounter("ftl.bad_block_remaps")) {
  if (config_.bad_block_rate > 0.0) {
    Xoshiro256 rng(config_.bad_block_seed);
    for (BlockRecord& block : blocks_) {
      if (rng.NextDouble() < config_.bad_block_rate) {
        block.bad = true;
        ++bad_block_count_;
      }
    }
  }
  // Each lane's stack is sized once: growing it by doubling left ~128 KiB
  // of freed buffers per open, enough that glibc returned a closed
  // device's heap to the OS and the next open faulted it back in.
  for (Lane& lane : lanes_) {
    lane.free.reserve(CeilDiv(blocks_.size(), lanes_.size()));
  }
  // Pop from the back; filling lowest-numbered blocks first keeps runs
  // reproducible and easy to inspect.
  for (std::uint64_t b = blocks_.size(); b > 0; --b) {
    if (!blocks_[b - 1].bad) FreeList(b - 1).push_back(b - 1);
  }
  // Withhold the remap reserve: highest-numbered good blocks, which sit at
  // the *front* of the lowest-block-first free lists and would be allocated
  // last anyway. Each is taken from the fullest lane, so the reserve drains
  // the lanes evenly.
  for (std::uint32_t r = 0; r < config_.reserved_blocks; ++r) {
    Lane* best = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.free.empty()) continue;
      if (best == nullptr || lane.free.size() > best->free.size()) best = &lane;
    }
    if (best == nullptr) break;
    reserve_blocks_.push_back(best->free.front());
    best->free.erase(best->free.begin());
  }
  stream_programs_[0] = metrics->RegisterCounter("ftl.programs.vlog");
  stream_programs_[1] = metrics->RegisterCounter("ftl.programs.lsm");
  stream_programs_[2] = metrics->RegisterCounter("ftl.programs.gc");
}

std::uint64_t PageFtl::free_blocks() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.free.size();
  return n;
}

void PageFtl::Map(std::uint64_t lpn, std::uint64_t ppn) {
  auto [it, inserted] = map_.try_emplace(lpn, ppn);
  if (!inserted) {
    Invalidate(it->second);
    it->second = ppn;
  }
  const auto& geom = nand_->geometry();
  BlockRecord& block = blocks_[geom.BlockOf(ppn)];
  block.lpns[geom.PageInBlock(ppn)] = lpn;
  ++block.valid;
}

void PageFtl::Invalidate(std::uint64_t ppn) {
  const auto& geom = nand_->geometry();
  BlockRecord& block = blocks_[geom.BlockOf(ppn)];
  std::uint64_t& lpn = block.lpns[geom.PageInBlock(ppn)];
  if (lpn == kUnmapped) return;
  lpn = kUnmapped;
  assert(block.valid > 0);
  --block.valid;
  nand_->DropPayload(ppn);
}

bool PageFtl::MapsTo(std::uint64_t lpn, std::uint64_t ppn) const {
  const auto& geom = nand_->geometry();
  const BlockRecord& block = blocks_[geom.BlockOf(ppn)];
  return block.lpns != nullptr && block.lpns[geom.PageInBlock(ppn)] == lpn;
}

Status PageFtl::OpenActiveBlock(ActiveBlock* active, Stream stream,
                                std::uint64_t want_lane) {
  if (active->block != kUnmapped) blocks_[active->block].full = true;
  // GC only when allocating for foreground streams; the GC stream draws
  // from the reserve directly to avoid re-entry.
  if (stream != Stream::kGc) {
    BANDSLIM_RETURN_IF_ERROR(MaybeCollect());
  }
  // Prefer the requested lane; fall back round-robin so a lane whose pool
  // drained does not wedge the stream.
  for (std::uint64_t i = 0; i < lanes_.size(); ++i) {
    std::vector<std::uint64_t>& pool =
        lanes_[(want_lane + i) % lanes_.size()].free;
    if (pool.empty()) continue;
    const std::uint64_t block = pool.back();
    pool.pop_back();
    const std::uint32_t pages = nand_->geometry().pages_per_block;
    blocks_[block].lpns = std::make_unique<std::uint64_t[]>(pages);
    std::fill_n(blocks_[block].lpns.get(), pages, kUnmapped);
    active->block = block;
    active->next_page = 0;
    return Status::Ok();
  }
  return Status::OutOfSpace("no free NAND blocks");
}

Result<std::uint64_t> PageFtl::AllocatePage(Stream stream) {
  const auto& geom = nand_->geometry();
  const int s = static_cast<int>(stream);
  // Rotate lanes per page so consecutive appends land on different
  // channels/ways and the parallel NAND scheduler can overlap them.
  const std::uint64_t lane = lane_cursor_[s];
  lane_cursor_[s] = (lane + 1) % lanes_.size();
  ActiveBlock& active = lanes_[lane].active[s];
  if (active.block == kUnmapped || active.next_page == geom.pages_per_block) {
    BANDSLIM_RETURN_IF_ERROR(OpenActiveBlock(&active, stream, lane));
  }
  return geom.PageIndex(active.block, active.next_page++);
}

Status PageFtl::MaybeCollect() {
  if (!below_watermark_ && free_blocks() < config_.gc_low_watermark) {
    below_watermark_ = true;
    if (event_log_ != nullptr) {
      event_log_->Emit(telemetry::EventType::kWatermarkLow, free_blocks(),
                       config_.gc_low_watermark);
    }
  }
  while (free_blocks() < config_.gc_low_watermark) {
    BANDSLIM_RETURN_IF_ERROR(CollectOneBlock());
  }
  if (below_watermark_) {
    below_watermark_ = false;
    if (event_log_ != nullptr) {
      event_log_->Emit(telemetry::EventType::kWatermarkCleared, free_blocks(),
                       config_.gc_low_watermark);
    }
  }
  return Status::Ok();
}

Result<std::uint32_t> PageFtl::CollectBudgeted(std::uint32_t max_blocks,
                                               std::uint64_t target_free) {
  std::uint32_t collected = 0;
  while (collected < max_blocks && free_blocks() < target_free) {
    const Status st = CollectOneBlock();
    if (!st.ok()) {
      // No reclaimable victim: every full block is still all-valid. That is
      // the normal idle state for paced background GC, not exhaustion —
      // foreground writes will age blocks into victims.
      if (st.code() == StatusCode::kOutOfSpace) break;
      return st;
    }
    ++collected;
  }
  return collected;
}

Status PageFtl::RelocateValidPages(std::uint64_t block) {
  trace::SpanScope span(tracer_, trace::Category::kFtlGc);
  const BlockRecord& record = blocks_[block];
  // A block not opened since its last erase holds no valid page.
  if (record.lpns == nullptr) return Status::Ok();
  const auto& geom = nand_->geometry();
  Bytes tmp(geom.page_size);
  for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
    const std::uint64_t lpn = record.lpns[p];
    if (lpn == kUnmapped) continue;
    const std::uint64_t ppn = geom.PageIndex(block, p);
    BANDSLIM_RETURN_IF_ERROR(nand_->Read(ppn, MutByteSpan(tmp)));
    const bool retain = nand_->HasRetainedData(ppn);
    // A media failure while replaying the page retries on a fresh GC
    // allocation (bounded). The failed destination page was never mapped, so
    // it simply stays garbage until its block is erased — retiring the
    // destination here would recurse into another relocation.
    std::uint64_t new_ppn = kUnmapped;
    for (std::uint32_t tries = 0;; ++tries) {
      auto dest = AllocatePage(Stream::kGc);
      if (!dest.ok()) return dest.status();
      const Status programmed = nand_->Program(dest.value(), ByteSpan(tmp), retain);
      if (programmed.ok()) {
        new_ppn = dest.value();
        break;
      }
      if (!programmed.IsMediaError()) return programmed;
      ++program_failures_;
      if (tries >= config_.max_program_retries) return programmed;
    }
    Map(lpn, new_ppn);
    ++gc_relocated_pages_;
    gc_relocations_->Increment();
    stream_programs_[static_cast<int>(Stream::kGc)]->Increment();
  }
  assert(record.valid == 0);
  return Status::Ok();
}

bool PageFtl::IsActive(std::uint64_t block) const {
  for (const Lane& lane : lanes_) {
    for (const ActiveBlock& a : lane.active) {
      if (a.block == block) return true;
    }
  }
  return false;
}

Status PageFtl::CollectOneBlock() {
  trace::SpanScope span(tracer_, trace::Category::kFtlGc);
  const auto& geom = nand_->geometry();
  // Victim selection: greedy on valid pages, optionally penalizing worn
  // blocks (static wear leveling, FtlConfig::wear_weight).
  std::uint32_t min_erase = ~0u;
  if (config_.wear_weight > 0.0) {
    for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
      if (blocks_[b].bad) continue;
      min_erase = std::min(min_erase, nand_->EraseCount(b));
    }
  }
  std::uint64_t victim = kUnmapped;
  double best_score = 1e300;
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    const BlockRecord& block = blocks_[b];
    if (!block.full || block.bad) continue;
    if (block.valid >= geom.pages_per_block) continue;  // Nothing to gain.
    double score = static_cast<double>(block.valid);
    if (config_.wear_weight > 0.0) {
      score += config_.wear_weight *
               static_cast<double>(nand_->EraseCount(b) - min_erase);
    }
    if (score < best_score) {
      best_score = score;
      victim = b;
    }
  }
  if (victim == kUnmapped) {
    return Status::OutOfSpace("GC found no reclaimable block");
  }

  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kGcStart, victim,
                     blocks_[victim].valid);
  }
  const std::uint64_t relocated_before = gc_relocated_pages_;
  BANDSLIM_RETURN_IF_ERROR(RelocateValidPages(victim));
  const Status erased = nand_->Erase(victim);
  if (erased.IsMediaError()) {
    // Erase failure retires the block; the reserve (if any) replaces it.
    // Either way the victim leaves the candidate set, so the GC loop makes
    // progress and terminates at kOutOfSpace when nothing is reclaimable.
    ++erase_retirements_;
    BANDSLIM_RETURN_IF_ERROR(RetireBlock(victim));
  } else {
    BANDSLIM_RETURN_IF_ERROR(erased);
    blocks_[victim] = BlockRecord{};
    FreeList(victim).push_back(victim);
  }
  ++gc_runs_;
  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kGcEnd, victim,
                     gc_relocated_pages_ - relocated_before);
  }
  return Status::Ok();
}

Status PageFtl::RetireBlock(std::uint64_t block) {
  for (Lane& lane : lanes_) {
    for (ActiveBlock& a : lane.active) {
      if (a.block == block) a = ActiveBlock{};
    }
  }
  BANDSLIM_RETURN_IF_ERROR(MarkBad(block));
  ++bad_block_remaps_;
  remaps_counter_->Increment();
  // With the reserve exhausted, usable capacity just shrinks; allocation
  // reports kOutOfSpace when the free pool eventually drains.
  const bool replaced = !reserve_blocks_.empty();
  if (replaced) {
    FreeList(reserve_blocks_.back()).push_back(reserve_blocks_.back());
    reserve_blocks_.pop_back();
  }
  if (event_log_ != nullptr) {
    event_log_->Emit(telemetry::EventType::kBlockRetired, block,
                     replaced ? 1 : 0);
  }
  return Status::Ok();
}

Status PageFtl::MarkBad(std::uint64_t block) {
  if (block >= blocks_.size()) {
    return Status::InvalidArgument("block out of range");
  }
  if (blocks_[block].bad) return Status::Ok();
  if (IsActive(block)) {
    return Status::InvalidArgument("cannot mark a stream-active block bad");
  }
  BANDSLIM_RETURN_IF_ERROR(RelocateValidPages(block));
  blocks_[block] = BlockRecord{};
  blocks_[block].bad = true;
  ++bad_block_count_;
  // Drop it from the free pool or the reserve, wherever it waits.
  std::vector<std::uint64_t>& pool = FreeList(block);
  pool.erase(std::remove(pool.begin(), pool.end(), block), pool.end());
  reserve_blocks_.erase(
      std::remove(reserve_blocks_.begin(), reserve_blocks_.end(), block),
      reserve_blocks_.end());
  return Status::Ok();
}

Status PageFtl::Write(std::uint64_t lpn, ByteSpan data, Stream stream,
                      bool retain) {
  Status last = Status::Ok();
  for (std::uint32_t attempt = 0; attempt <= config_.max_program_retries;
       ++attempt) {
    auto ppn = AllocatePage(stream);
    if (!ppn.ok()) return ppn.status();  // Clean kOutOfSpace, never retried.
    last = nand_->Program(ppn.value(), data, retain);
    if (last.ok()) {
      Map(lpn, ppn.value());
      stream_programs_[static_cast<int>(stream)]->Increment();
      return Status::Ok();
    }
    // Only media failures are worth a retry elsewhere; power loss or
    // argument errors propagate untouched.
    if (!last.IsMediaError()) return last;
    ++program_failures_;
    // The failed page was never mapped, so retirement replays exactly the
    // surviving co-located pages of the block onto fresh blocks.
    BANDSLIM_RETURN_IF_ERROR(
        RetireBlock(nand_->geometry().BlockOf(ppn.value())));
  }
  return last;
}

Status PageFtl::Read(std::uint64_t lpn, MutByteSpan out) {
  auto it = map_.find(lpn);
  if (it == map_.end()) {
    return Status::NotFound("unmapped logical NAND page");
  }
  assert(MapsTo(lpn, it->second));
  return nand_->Read(it->second, out);
}

Status PageFtl::ReadView(std::uint64_t lpn, std::shared_ptr<const Bytes>* out) {
  auto it = map_.find(lpn);
  if (it == map_.end()) {
    return Status::NotFound("unmapped logical NAND page");
  }
  assert(MapsTo(lpn, it->second));
  return nand_->ReadView(it->second, out);
}

Status PageFtl::Trim(std::uint64_t lpn) {
  auto it = map_.find(lpn);
  if (it == map_.end()) return Status::Ok();
  Invalidate(it->second);
  map_.erase(it);
  return Status::Ok();
}

}  // namespace bandslim::ftl
