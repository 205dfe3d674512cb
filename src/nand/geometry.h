// NAND flash geometry. The paper's testbed carries a 1 TB module with
// 4 channels x 8 ways and 16 KiB pages (Table 1). The simulator defaults to
// the same channel/way/page shape scaled to 64 GiB; geometry is fully
// configurable. NAND and the FTL keep fixed state per block only (page state
// and the reverse map live in records of written blocks), so a larger
// geometry costs a few bytes per block, not per page.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace bandslim::nand {

struct NandGeometry {
  std::uint32_t channels = 4;
  std::uint32_t ways = 8;            // Dies per channel.
  std::uint32_t blocks_per_die = 512;
  std::uint32_t pages_per_block = 256;
  std::size_t page_size = kNandPageSize;

  std::uint64_t dies() const {
    return static_cast<std::uint64_t>(channels) * ways;
  }
  std::uint64_t total_blocks() const { return dies() * blocks_per_die; }
  std::uint64_t total_pages() const {
    return total_blocks() * pages_per_block;
  }
  std::uint64_t capacity_bytes() const { return total_pages() * page_size; }

  // Flat physical page index helpers.
  std::uint64_t PageIndex(std::uint64_t block, std::uint32_t page) const {
    return block * pages_per_block + page;
  }
  std::uint64_t BlockOf(std::uint64_t phys_page) const {
    return phys_page / pages_per_block;
  }
  std::uint32_t PageInBlock(std::uint64_t phys_page) const {
    return static_cast<std::uint32_t>(phys_page % pages_per_block);
  }
};

}  // namespace bandslim::nand
