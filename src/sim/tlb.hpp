// Per-core data TLB modelled as a small set-associative cache of page
// numbers. Strided and random access patterns blow this structure out,
// which is the main "bad-ma" signature the paper's event 13 (DTLB_Misses)
// picks up.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace fsml::sim {

class Dtlb {
 public:
  /// `entries` total entries, `ways` associativity, `page_bytes` page size.
  Dtlb(std::uint32_t entries, std::uint32_t ways, std::uint32_t page_bytes);

  /// Translates; returns true on hit. On miss, installs the mapping (LRU).
  bool access(Addr addr);

  void reset();

  std::uint32_t page_bytes() const { return page_bytes_; }

 private:
  struct Entry {
    std::uint64_t vpn = 0;
    bool valid = false;
    std::uint64_t lru_stamp = 0;
  };

  std::uint32_t ways_;
  std::uint32_t page_bytes_;
  unsigned page_shift_;  ///< log2(page_bytes_)
  std::uint64_t num_sets_;
  std::vector<Entry> entries_;  // sets_ * ways_ flattened
  std::uint64_t stamp_ = 0;
};

}  // namespace fsml::sim
