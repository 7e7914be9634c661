#include "sim/tlb.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace fsml::sim {

Dtlb::Dtlb(std::uint32_t entries, std::uint32_t ways, std::uint32_t page_bytes)
    : ways_(ways),
      page_bytes_(page_bytes),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_bytes))) {
  FSML_CHECK(entries > 0 && ways > 0 && entries % ways == 0);
  FSML_CHECK(std::has_single_bit(static_cast<std::uint64_t>(page_bytes)));
  num_sets_ = entries / ways;
  FSML_CHECK(std::has_single_bit(num_sets_));
  entries_.resize(entries);
}

bool Dtlb::access(Addr addr) {
  const std::uint64_t vpn = addr >> page_shift_;
  const std::uint64_t set = vpn & (num_sets_ - 1);
  Entry* base = &entries_[set * ways_];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Entry& e = base[w];
    if (e.valid && e.vpn == vpn) {
      e.lru_stamp = ++stamp_;
      return true;
    }
  }
  // Miss: install over an invalid way or the LRU way.
  Entry* victim = base;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru_stamp < victim->lru_stamp) victim = &base[w];
  }
  victim->vpn = vpn;
  victim->valid = true;
  victim->lru_stamp = ++stamp_;
  return false;
}

void Dtlb::reset() {
  for (Entry& e : entries_) e = Entry{};
  stamp_ = 0;
}

}  // namespace fsml::sim
