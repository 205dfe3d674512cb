// Physical Region Page (PRP) list: the NVMe descriptor for payload in host
// memory (Section 2.2). PRP1/PRP2 live inside the command; longer payloads
// spill into a PRP list page that the controller must additionally fetch
// from host memory — we account that fetch traffic too.
//
// Up to kInlinePages entries are stored inline (covering values up to one
// NAND page), so the common small-value commands are built and copied
// without touching the allocator; longer lists spill to a heap vector,
// mirroring how a real PRP list spills into a list page.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "nvme/host_memory.h"

namespace bandslim::nvme {

class PrpList {
 public:
  static constexpr std::size_t kInlinePages = 4;

  PrpList() = default;
  explicit PrpList(const std::vector<PageId>& pages) {
    Assign({pages.data(), pages.size()});
  }
  explicit PrpList(std::span<const PageId> pages) { Assign(pages); }

  void Assign(std::span<const PageId> pages) {
    count_ = pages.size();
    if (count_ <= kInlinePages) {
      std::copy(pages.begin(), pages.end(), inline_.begin());
      spill_.clear();
    } else {
      spill_.assign(pages.begin(), pages.end());
    }
  }

  std::span<const PageId> pages() const {
    return count_ <= kInlinePages
               ? std::span<const PageId>(inline_.data(), count_)
               : std::span<const PageId>(spill_.data(), count_);
  }
  std::size_t page_count() const { return count_; }
  bool empty() const { return count_ == 0; }

  // PRP semantics: the first two entries ride inside the command (PRP1 and
  // PRP2); with three or more pages, PRP2 points at a list page that holds
  // one 8-byte entry per remaining page. Returns the number of bytes the
  // controller must fetch from host memory to learn the page addresses
  // (beyond the command itself).
  std::uint64_t ListFetchBytes() const {
    if (count_ <= 2) return 0;
    return (count_ - 1) * 8;  // PRP2 points to the list; entries are 8 B.
  }

  // Total bytes a page-unit DMA over this list moves (always whole pages —
  // the amplification at the heart of the paper's Problem #1).
  std::uint64_t DmaBytes() const { return count_ * kMemPageSize; }

 private:
  std::array<PageId, kInlinePages> inline_{};
  std::vector<PageId> spill_;
  std::size_t count_ = 0;
};

}  // namespace bandslim::nvme
