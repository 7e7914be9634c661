#include "sim/cache.hpp"

#include <bit>

#include "util/check.hpp"

namespace fsml::sim {

namespace {
CacheGeometry validated(CacheGeometry geometry) {
  geometry.validate();
  return geometry;
}
}  // namespace

Cache::Cache(CacheGeometry geometry)
    : geometry_(validated(geometry)),
      ways_(geometry_.ways),
      num_sets_(geometry_.num_sets()),
      line_shift_(static_cast<unsigned>(std::countr_zero(geometry_.line_bytes))),
      pow2_sets_(std::has_single_bit(num_sets_)) {
  if (pow2_sets_) {
    set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
    set_mask_ = num_sets_ - 1;
  }
  keys_.resize(static_cast<std::size_t>(num_sets_) * ways_);
  stamps_.resize(keys_.size());
}

Cache::Slot Cache::find(Addr addr) const {
  const SetTag st = locate(addr);
  const std::size_t base = st.set * ways_;
  const std::uint64_t want = make_key(st.tag, MesiState::kInvalid);
  const Addr line = addr & ~static_cast<Addr>(geometry_.line_bytes - 1);
  for (std::size_t way = base; way != base + ways_; ++way)
    if (holds(keys_[way], want)) return {line, way};
  return {line, kAbsent};
}

void Cache::set_state(const Slot& slot, MesiState state) {
  FSML_CHECK_MSG(slot.resident(), "set_state on a non-resident line");
  std::uint64_t& key = keys_[slot.way];
  notify(slot.line, state_bits(key), state);
  key = (key & ~kStateBits) | static_cast<std::uint64_t>(state);
}

MesiState Cache::invalidate(const Slot& slot) {
  if (!slot.resident()) return MesiState::kInvalid;
  std::uint64_t& key = keys_[slot.way];
  const MesiState prior = state_bits(key);
  notify(slot.line, prior, MesiState::kInvalid);
  key &= ~kStateBits;
  return prior;
}

std::optional<Eviction> Cache::fill(Addr addr, MesiState state) {
  FSML_DCHECK(state != MesiState::kInvalid);
  const SetTag st = locate(addr);
  std::uint64_t* const keys = keys_.data() + st.set * ways_;
  std::uint64_t* const stamps = stamps_.data() + st.set * ways_;
  const std::uint64_t want = make_key(st.tag, MesiState::kInvalid);
  const Addr line = addr & ~static_cast<Addr>(geometry_.line_bytes - 1);

  // One pass finds the resident line, else the first invalid way, else the
  // true-LRU way: the first minimum stamp, as std::min_element picks
  // (`lru` is used only when every way is valid).
  std::uint32_t invalid = ways_;
  std::uint32_t lru = 0;
  std::uint64_t lru_stamp = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const std::uint64_t key = keys[w];
    if (holds(key, want)) {
      notify(line, state_bits(key), state);
      keys[w] = make_key(st.tag, state);
      stamps[w] = ++stamp_;
      return std::nullopt;
    }
    if (state_bits(key) == MesiState::kInvalid) {
      if (invalid == ways_) invalid = w;
    } else if (stamps[w] < lru_stamp) {
      lru = w;
      lru_stamp = stamps[w];
    }
  }

  std::optional<Eviction> eviction;
  std::uint32_t victim = invalid;
  if (victim == ways_) {
    victim = lru;
    const Addr victim_line = line_of(keys[victim] >> 2, st.set);
    const MesiState victim_state = state_bits(keys[victim]);
    eviction = Eviction{victim_line, victim_state};
    notify(victim_line, victim_state, MesiState::kInvalid);
  }
  keys[victim] = make_key(st.tag, state);
  stamps[victim] = ++stamp_;
  notify(line, MesiState::kInvalid, state);
  return eviction;
}

std::size_t Cache::occupancy() const {
  std::size_t n = 0;
  for (const std::uint64_t key : keys_)
    if (state_bits(key) != MesiState::kInvalid) ++n;
  return n;
}

void Cache::for_each_line(
    const std::function<void(Addr, MesiState)>& visit) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const MesiState state = state_bits(keys_[i]);
    if (state == MesiState::kInvalid) continue;
    visit(line_of(keys_[i] >> 2, i / ways_), state);
  }
}

}  // namespace fsml::sim
