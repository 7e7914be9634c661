// Set-associative tag store with true-LRU replacement and per-line MESI
// state. Used for both private levels (L1D, L2) and the shared L3.
//
// The store is tags-only: the simulator models coherence and timing, not
// data values (kernels compute on host values and drive the simulator with
// their access streams).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/geometry.hpp"
#include "sim/types.hpp"

namespace fsml::sim {

/// A line evicted to make room for a fill.
struct Eviction {
  Addr line_addr = 0;
  MesiState state = MesiState::kInvalid;  ///< state at eviction time
};

/// Observes every per-line MESI transition a cache makes, including the
/// implicit victim invalidation inside fill(). Plain function pointer +
/// context (no std::function) — it sits on the access hot path. The
/// coherence directory hangs off every L2 through this hook so it can stay
/// exactly in sync without MemorySystem hand-maintaining it at each of the
/// dozen mutation sites.
using LineEventHook = void (*)(void* ctx, Addr line, MesiState from,
                               MesiState to);

class Cache {
 public:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// A line located by one set scan (find/touch). Handing it back to
  /// state()/set_state()/invalidate() reads or changes that line without
  /// scanning its set again. Valid until the next fill() into this cache.
  struct Slot {
    Addr line = 0;              ///< line-aligned address
    std::size_t way = kAbsent;  ///< tag-store index; kAbsent if not resident
    bool resident() const { return way != kAbsent; }
  };

  explicit Cache(CacheGeometry geometry);

  const CacheGeometry& geometry() const { return geometry_; }

  /// Locates the line containing `addr`: one scan of its set.
  Slot find(Addr addr) const;

  /// find(), promoting a resident line to MRU.
  Slot touch(Addr addr) {
    const Slot slot = find(addr);
    if (slot.resident()) stamps_[slot.way] = ++stamp_;
    return slot;
  }

  /// State of a located line; kInvalid if it is not resident.
  MesiState state(const Slot& slot) const {
    return slot.resident() ? state_bits(keys_[slot.way]) : MesiState::kInvalid;
  }

  /// Changes the state of a located line (resident required).
  void set_state(const Slot& slot, MesiState state);

  /// Removes a located line if resident; returns its prior state.
  MesiState invalidate(const Slot& slot);

  /// Address forms of the above, one set scan each.
  MesiState state_of(Addr addr) const { return state(find(addr)); }
  bool contains(Addr addr) const { return find(addr).resident(); }
  void set_state(Addr addr, MesiState state) { set_state(find(addr), state); }
  MesiState invalidate(Addr addr) { return invalidate(find(addr)); }

  /// Inserts (or re-states) the line in `state`, evicting the LRU way if the
  /// set is full. Returns the eviction, if one happened.
  std::optional<Eviction> fill(Addr addr, MesiState state);

  /// Number of valid lines currently resident (for tests/invariants).
  std::size_t occupancy() const;

  /// Visits every valid line (for inclusion checks in tests).
  void for_each_line(
      const std::function<void(Addr, MesiState)>& visit) const;

  /// Installs (or clears, with nullptr) the line-event hook. Fires on every
  /// state transition where `from != to`; eviction victims report
  /// `to == kInvalid`.
  void set_line_event_hook(LineEventHook hook, void* ctx) {
    hook_ = hook;
    hook_ctx_ = ctx;
  }

 private:
  /// A way's key packs its tag and state as `tag << 2 | MESI`. kInvalid is
  /// 0, so a key holds the line `want = tag << 2` exactly when `key ^ want`
  /// is 1, 2 or 3: one compare per way.
  static constexpr std::uint64_t kStateBits = 3;
  static MesiState state_bits(std::uint64_t key) {
    return static_cast<MesiState>(key & kStateBits);
  }
  static std::uint64_t make_key(std::uint64_t tag, MesiState state) {
    return tag << 2 | static_cast<std::uint64_t>(state);
  }
  static bool holds(std::uint64_t key, std::uint64_t want) {
    return (key ^ want) - 1 < kStateBits;
  }

  struct SetTag {
    std::size_t set;
    std::uint64_t tag;
  };

  /// CacheGeometry's modulo indexing: a shift and a mask when the set count
  /// is a power of two, one divide otherwise.
  SetTag locate(Addr addr) const {
    const std::uint64_t block = addr >> line_shift_;
    if (pow2_sets_) return {block & set_mask_, block >> set_shift_};
    const std::uint64_t tag = block / num_sets_;
    return {block - tag * num_sets_, tag};
  }

  Addr line_of(std::uint64_t tag, std::size_t set) const {
    return (tag * num_sets_ + set) << line_shift_;
  }

  void notify(Addr line, MesiState from, MesiState to) {
    if (hook_ != nullptr && from != to) hook_(hook_ctx_, line, from, to);
  }

  CacheGeometry geometry_;
  std::uint32_t ways_;
  std::uint64_t num_sets_;
  unsigned line_shift_;
  bool pow2_sets_;
  unsigned set_shift_ = 0;      ///< log2(num_sets_) when pow2_sets_
  std::uint64_t set_mask_ = 0;  ///< num_sets_ - 1 when pow2_sets_
  /// Flat tag store: way w of set s sits at index s * ways_ + w of both
  /// arrays. Lookups read only the keys (an 8-way set is 64 bytes); the LRU
  /// stamps (larger = more recently used) are read only to pick a victim.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t stamp_ = 0;
  LineEventHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace fsml::sim
