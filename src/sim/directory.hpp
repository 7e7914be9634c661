// Coherence directory: O(1) per-line owner/sharer lookup for the memory
// hierarchy.
//
// Every coherence event — a miss in MemorySystem::service_request, an S->M
// upgrade, the prefetcher's owned/shared-elsewhere probe — asks which peers
// hold a line. Walking every peer core's L2 to answer costs O(cores) tag
// probes per event; real Westmere parts avoid exactly this with the
// inclusive L3's snoop filter. This directory is the simulator's
// equivalent and its only answer to that question: one record per line
// resident in *any* private L2, holding
//
//   * `sharers` — a hierarchical bitmask of every core whose L2 holds the
//     line in any valid MESI state (one 64-bit word per socket), and
//   * `owner` / `owner_state` — the unique core holding the line Modified
//     or Exclusive, if one exists (MESI single-writer invariant).
//
// The directory is maintained *exactly* in sync with the caches: every L2
// line transition (fill, upgrade, downgrade, invalidate, eviction,
// writeback restate) flows through Cache's line-event hook into
// on_line_event(). It is a pure index — it never decides protocol actions,
// it only answers "who holds this line?" in O(1). Debug builds of
// MemorySystem cross-check every lookup against a full peer scan, and the
// fuzz tests compare the whole directory to a scan after every access.
//
// Storage is an open-addressing hash table kept below a 1/2 load factor so
// probes stay short. It starts small (a machine is constructed per trainer
// run, and pre-sizing for the worst case — every L2 way of every core
// holding a distinct line — made construction cost rival short
// simulations) and doubles as the tracked working set grows, an amortized
// O(1) deterministic rehash that typically settles within the first few
// thousand fills; the access path itself never allocates. Erase uses
// backward-shift deletion so no tombstones accumulate over long
// simulations.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/topology.hpp"
#include "sim/types.hpp"
#include "util/check.hpp"

namespace fsml::sim {

/// Hierarchical sharer set: one 64-bit word per socket, inline (no heap).
/// On a single-socket machine only word 0 is ever touched, so the layout,
/// iteration order, and cost degenerate to the pre-NUMA single-word mask.
struct SharerMask {
  std::array<std::uint64_t, kMaxSockets> words{};

  bool any() const {
    return (words[0] | words[1] | words[2] | words[3]) != 0;
  }
  bool none() const { return !any(); }
  int count() const {
    int n = 0;
    for (const std::uint64_t w : words) n += std::popcount(w);
    return n;
  }
  void reset() { words.fill(0); }
  std::uint64_t word(std::uint32_t socket) const { return words[socket]; }

  friend bool operator==(const SharerMask&, const SharerMask&) = default;
};

/// Maps core ids onto (word, bit) positions of a SharerMask for a fixed
/// SocketTopology, and iterates masks in ascending core order — socket
/// words low to high, bits low to high — which, with socket-contiguous
/// core numbering, is exactly the ascending core-id order the pre-NUMA
/// single-word mask produced (the bit-identity contract relies on this).
class SharerIndex {
 public:
  SharerIndex() = default;
  explicit SharerIndex(const SocketTopology& topo)
      : span_(topo.cores_per_socket == 0 ? kMaxCoresPerSocket
                                         : topo.cores_per_socket) {}

  void set(SharerMask& m, CoreId core) const {
    m.words[core / span_] |= std::uint64_t{1} << (core % span_);
  }
  void clear(SharerMask& m, CoreId core) const {
    m.words[core / span_] &= ~(std::uint64_t{1} << (core % span_));
  }
  bool test(const SharerMask& m, CoreId core) const {
    return (m.words[core / span_] >> (core % span_)) & 1u;
  }

  /// Visits every set core in ascending core-id order.
  template <typename F>
  void for_each(const SharerMask& m, F&& visit) const {
    for (std::uint32_t w = 0; w < kMaxSockets; ++w) {
      std::uint64_t bits = m.words[w];
      while (bits != 0) {
        visit(static_cast<CoreId>(
            w * span_ + static_cast<std::uint32_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }

  std::uint32_t span() const { return span_; }

 private:
  std::uint32_t span_ = kMaxCoresPerSocket;  ///< cores per mask word
};

class CoherenceDirectory {
 public:
  static constexpr CoreId kNoOwner = ~CoreId{0};

  struct Entry {
    Addr line = 0;
    SharerMask sharers;       ///< all valid holders; empty marks a free slot
    CoreId owner = kNoOwner;  ///< the M/E holder, if any
    MesiState owner_state = MesiState::kInvalid;
  };

  /// `max_lines` is the worst-case number of simultaneously tracked lines
  /// (num_cores * lines-per-L2 for an inclusive hierarchy); the table sizes
  /// itself for small worst cases and grows on demand toward large ones.
  CoherenceDirectory(const SocketTopology& topo, std::uint32_t num_cores,
                     std::uint64_t max_lines);

  /// O(1) lookup: the record for `line`, or nullptr if no private L2 holds
  /// it. The returned pointer is invalidated by the next state change.
  const Entry* lookup(Addr line) const {
    const std::size_t slot = find_slot(line);
    return slots_[slot].sharers.any() ? &slots_[slot] : nullptr;
  }

  /// Applies one L2 line transition (wired into Cache::set_line_event_hook;
  /// `from == to` transitions are filtered out by the cache).
  void on_line_event(CoreId core, Addr line, MesiState from, MesiState to);

  /// Number of distinct lines currently tracked.
  std::size_t size() const { return size_; }

  /// Visits every tracked line (cold path: invariant checks, debug dumps).
  template <typename F>
  void for_each(F&& visit) const {
    for (const Entry& e : slots_)
      if (e.sharers.any()) visit(e);
  }

  const SharerIndex& index() const { return idx_; }

 private:
  std::size_t find_slot(Addr line) const {
    std::size_t i =
        static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].sharers.any() && slots_[i].line != line)
      i = (i + 1) & mask_;
    return i;
  }

  /// Backward-shift deletion keeps probe chains tombstone-free.
  void erase_slot(std::size_t slot);

  /// Doubles capacity and rehashes every live entry (amortized O(1)).
  void grow();

  SharerIndex idx_;
  std::vector<Entry> slots_;
  std::size_t mask_ = 0;   ///< capacity - 1 (capacity is a power of two)
  unsigned shift_ = 0;     ///< 64 - log2(capacity), for the fibonacci hash
  std::size_t size_ = 0;
};

}  // namespace fsml::sim
