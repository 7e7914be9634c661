// Unit tests for the simulator's building blocks: geometry, the
// set-associative tag store (LRU, eviction, invalidation), the DTLB, the
// drain queue and the line-fill buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/geometry.hpp"
#include "sim/machine_config.hpp"
#include "sim/store_buffer.hpp"
#include "sim/tlb.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;
using sim::MesiState;

// ---- geometry ---------------------------------------------------------------

TEST(Geometry, DerivedQuantities) {
  sim::CacheGeometry g{32 * 1024, 8, 64};
  g.validate();
  EXPECT_EQ(g.num_lines(), 512u);
  EXPECT_EQ(g.num_sets(), 64u);
}

TEST(Geometry, NonPowerOfTwoSetsSupported) {
  // Westmere's L3: 12 MiB / 16-way = 12288 sets.
  sim::CacheGeometry g{12 * 1024 * 1024, 16, 64};
  g.validate();
  EXPECT_EQ(g.num_sets(), 12288u);
  // set_index must stay within bounds for arbitrary addresses.
  for (sim::Addr a = 0; a < 1 << 22; a += 4093)
    EXPECT_LT(g.set_index(a), g.num_sets());
}

TEST(Geometry, LineAddrMasksOffset) {
  sim::CacheGeometry g{1024, 2, 64};
  EXPECT_EQ(g.line_addr(0x1234), 0x1200u);
  EXPECT_EQ(g.line_addr(0x1240), 0x1240u);
}

TEST(Geometry, SameSetSameTagMeansSameLine) {
  sim::CacheGeometry g{4096, 4, 64};
  const sim::Addr a = 0x10040, b = 0x10050;  // same line
  EXPECT_EQ(g.set_index(a), g.set_index(b));
  EXPECT_EQ(g.tag(a), g.tag(b));
}

TEST(Geometry, InvalidConfigsRejected) {
  sim::CacheGeometry zero{0, 8, 64};
  EXPECT_THROW(zero.validate(), util::CheckFailure);
  sim::CacheGeometry odd_line{1024, 2, 48};
  EXPECT_THROW(odd_line.validate(), util::CheckFailure);
  sim::CacheGeometry indivisible{1000, 3, 64};
  EXPECT_THROW(indivisible.validate(), util::CheckFailure);
}

// ---- cache tag store ---------------------------------------------------------

sim::Cache tiny_cache() { return sim::Cache({256, 2, 64}); }  // 2 sets, 2 ways

TEST(Cache, FillAndLookup) {
  sim::Cache c = tiny_cache();
  EXPECT_EQ(c.state_of(0x1000), MesiState::kInvalid);
  EXPECT_FALSE(c.fill(0x1000, MesiState::kExclusive).has_value());
  EXPECT_EQ(c.state_of(0x1000), MesiState::kExclusive);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, SameLineDifferentOffsets) {
  sim::Cache c = tiny_cache();
  c.fill(0x1000, MesiState::kShared);
  EXPECT_EQ(c.state_of(0x103F), MesiState::kShared);
  EXPECT_EQ(c.state_of(0x1040), MesiState::kInvalid);
}

TEST(Cache, LruEvictionOrder) {
  sim::Cache c = tiny_cache();  // set stride = 128 bytes
  // Three lines mapping to set 0 (addresses 0x0, 0x80 apart... use 128B).
  c.fill(0x0000, MesiState::kExclusive);
  c.fill(0x0080, MesiState::kExclusive);
  c.touch(0x0000);  // 0x0000 is now MRU; 0x0080 is LRU
  const auto ev = c.fill(0x0100, MesiState::kExclusive);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0x0080u);
  EXPECT_EQ(c.state_of(0x0000), MesiState::kExclusive);
  EXPECT_EQ(c.state_of(0x0080), MesiState::kInvalid);
}

TEST(Cache, EvictionReportsState) {
  sim::Cache c = tiny_cache();
  c.fill(0x0000, MesiState::kModified);
  c.fill(0x0080, MesiState::kExclusive);
  const auto ev = c.fill(0x0100, MesiState::kShared);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->state, MesiState::kModified);
}

TEST(Cache, RefillingResidentLineUpdatesStateWithoutEviction) {
  sim::Cache c = tiny_cache();
  c.fill(0x0000, MesiState::kShared);
  const auto ev = c.fill(0x0000, MesiState::kModified);
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(c.state_of(0x0000), MesiState::kModified);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, InvalidateReturnsPriorState) {
  sim::Cache c = tiny_cache();
  c.fill(0x0000, MesiState::kModified);
  EXPECT_EQ(c.invalidate(0x0000), MesiState::kModified);
  EXPECT_EQ(c.invalidate(0x0000), MesiState::kInvalid);
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(Cache, SetStateRequiresResidency) {
  sim::Cache c = tiny_cache();
  EXPECT_THROW(c.set_state(0x0000, MesiState::kShared), util::CheckFailure);
}

TEST(Cache, ForEachLineVisitsAllValid) {
  sim::Cache c = tiny_cache();
  c.fill(0x0000, MesiState::kExclusive);
  c.fill(0x0040, MesiState::kShared);  // set 1
  std::size_t visited = 0;
  c.for_each_line([&](sim::Addr addr, MesiState s) {
    ++visited;
    EXPECT_EQ(c.state_of(addr), s);
  });
  EXPECT_EQ(visited, 2u);
}

TEST(Cache, FillPrefersInvalidWays) {
  sim::Cache c = tiny_cache();
  c.fill(0x0000, MesiState::kExclusive);
  c.invalidate(0x0000);
  c.fill(0x0080, MesiState::kExclusive);
  // Set 0 has one invalid way; filling must not evict 0x0080.
  const auto ev = c.fill(0x0100, MesiState::kExclusive);
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(c.state_of(0x0080), MesiState::kExclusive);
}

TEST(Cache, SlotReusesOneLookup) {
  sim::Cache c = tiny_cache();
  c.fill(0x0040, MesiState::kExclusive);
  const sim::Cache::Slot hit = c.touch(0x0044);
  ASSERT_TRUE(hit.resident());
  EXPECT_EQ(hit.line, 0x0040u);
  c.set_state(hit, MesiState::kModified);
  EXPECT_EQ(c.state_of(0x0040), MesiState::kModified);
  EXPECT_EQ(c.invalidate(hit), MesiState::kModified);
  EXPECT_FALSE(c.find(0x0040).resident());
  EXPECT_EQ(c.state(c.find(0x0040)), MesiState::kInvalid);
}

// ---- cache differential test ---------------------------------------------------

/// Reference tag store: a vector of ways per set, indexed through
/// CacheGeometry::set_index/tag, whose fill() makes separate find,
/// first-invalid and std::min_element passes. sim::Cache packs keys,
/// indexes by shift and mask, and fills in one pass; it must agree with
/// this model on every result.
class ReferenceCache {
 public:
  explicit ReferenceCache(const sim::CacheGeometry& g)
      : g_(g), sets_(g.num_sets(), std::vector<Way>(g.ways)) {}

  MesiState state_of(sim::Addr a) const {
    const Way* w = find(a);
    return w ? w->state : MesiState::kInvalid;
  }
  MesiState touch(sim::Addr a) {
    Way* w = find(a);
    if (!w) return MesiState::kInvalid;
    w->stamp = ++stamp_;
    return w->state;
  }
  void set_state(sim::Addr a, MesiState s) { find(a)->state = s; }
  MesiState invalidate(sim::Addr a) {
    Way* w = find(a);
    return w ? std::exchange(w->state, MesiState::kInvalid)
             : MesiState::kInvalid;
  }
  std::optional<sim::Eviction> fill(sim::Addr a, MesiState s) {
    if (Way* w = find(a)) {
      w->state = s;
      w->stamp = ++stamp_;
      return std::nullopt;
    }
    std::vector<Way>& set = sets_[g_.set_index(a)];
    auto victim = std::find_if(set.begin(), set.end(), [](const Way& w) {
      return w.state == MesiState::kInvalid;
    });
    std::optional<sim::Eviction> eviction;
    if (victim == set.end()) {
      victim = std::min_element(
          set.begin(), set.end(),
          [](const Way& x, const Way& y) { return x.stamp < y.stamp; });
      eviction = sim::Eviction{
          (victim->tag * g_.num_sets() + g_.set_index(a)) * g_.line_bytes,
          victim->state};
    }
    *victim = Way{g_.tag(a), s, ++stamp_};
    return eviction;
  }
  std::vector<std::pair<sim::Addr, MesiState>> lines() const {
    std::vector<std::pair<sim::Addr, MesiState>> out;
    for (std::uint64_t s = 0; s < sets_.size(); ++s)
      for (const Way& w : sets_[s])
        if (w.state != MesiState::kInvalid)
          out.emplace_back((w.tag * g_.num_sets() + s) * g_.line_bytes,
                           w.state);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    MesiState state = MesiState::kInvalid;
    std::uint64_t stamp = 0;
  };

  Way* find(sim::Addr a) {
    for (Way& w : sets_[g_.set_index(a)])
      if (w.state != MesiState::kInvalid && w.tag == g_.tag(a)) return &w;
    return nullptr;
  }
  const Way* find(sim::Addr a) const {
    return const_cast<ReferenceCache*>(this)->find(a);
  }

  sim::CacheGeometry g_;
  std::vector<std::vector<Way>> sets_;
  std::uint64_t stamp_ = 0;
};

std::vector<std::pair<sim::Addr, MesiState>> lines_of(const sim::Cache& c) {
  std::vector<std::pair<sim::Addr, MesiState>> out;
  c.for_each_line([&](sim::Addr a, MesiState s) { out.emplace_back(a, s); });
  std::sort(out.begin(), out.end());
  return out;
}

/// Seeded fill/touch/set_state/invalidate traffic against both models.
/// Most addresses land in three hot sets with more candidate lines than
/// ways, so fills keep evicting; a few carry tags far above 2^32.
void expect_matches_reference(const sim::CacheGeometry& g,
                              std::uint64_t seed) {
  sim::Cache cache(g);
  ReferenceCache ref(g);
  util::Rng rng(seed);
  const std::uint64_t sets = g.num_sets();
  const MesiState kValid[] = {MesiState::kShared, MesiState::kExclusive,
                              MesiState::kModified};
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t set = rng.next_bool(0.8)
                                  ? rng.next_below(std::min<std::uint64_t>(3, sets))
                                  : rng.next_below(sets);
    std::uint64_t tag = rng.next_below(2 * g.ways + 1);
    if (rng.next_bool(0.05)) tag += std::uint64_t{1} << 36;
    const sim::Addr addr =
        (tag * sets + set) * g.line_bytes + rng.next_below(g.line_bytes);
    const MesiState state = kValid[rng.next_below(3)];
    const std::string where = "op " + std::to_string(op) + " addr " +
                              std::to_string(addr) + " (" +
                              std::to_string(sets) + " sets)";
    switch (rng.next_below(5)) {
      case 0:
      case 1: {
        const auto got = cache.fill(addr, state);
        const auto want = ref.fill(addr, state);
        ASSERT_EQ(got.has_value(), want.has_value()) << where;
        if (want) {
          ASSERT_EQ(got->line_addr, want->line_addr) << where;
          ASSERT_EQ(got->state, want->state) << where;
        }
        break;
      }
      case 2:
        ASSERT_EQ(cache.state(cache.touch(addr)), ref.touch(addr)) << where;
        break;
      case 3:
        if (ref.state_of(addr) != MesiState::kInvalid) {
          cache.set_state(addr, state);
          ref.set_state(addr, state);
        }
        break;
      default:
        ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr)) << where;
        break;
    }
    ASSERT_EQ(cache.state_of(addr), ref.state_of(addr)) << where;
  }
  const auto want = ref.lines();
  EXPECT_EQ(cache.occupancy(), want.size());
  EXPECT_EQ(lines_of(cache), want);
}

TEST(Cache, MatchesReferenceModelOnEveryGeometry) {
  const sim::MachineConfig westmere = sim::MachineConfig::westmere_dp();
  const sim::MachineConfig tiny = sim::MachineConfig::tiny();
  const std::pair<const char*, sim::CacheGeometry> geometries[] = {
      {"L1D (64 sets)", westmere.l1d},
      {"L2 (512 sets)", westmere.l2},
      {"L3 (12288 sets)", westmere.l3},
      {"xeon32 L3 (24576 sets)", sim::MachineConfig::xeon32().l3},
      {"tiny L1D", tiny.l1d},
      {"tiny L2", tiny.l2},
      {"tiny L3", tiny.l3},
  };
  for (const auto& [name, geometry] : geometries) {
    for (const std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE(std::string(name) + ", seed " + std::to_string(seed));
      expect_matches_reference(geometry, seed);
    }
  }
}

// ---- dtlb --------------------------------------------------------------------

TEST(Dtlb, HitAfterInstall) {
  sim::Dtlb tlb(8, 2, 4096);
  EXPECT_FALSE(tlb.access(0x1000));  // cold miss installs
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1FFF));  // same page
  EXPECT_FALSE(tlb.access(0x2000));  // next page
}

TEST(Dtlb, CapacityEviction) {
  sim::Dtlb tlb(4, 4, 4096);  // 1 set, 4 ways
  for (sim::Addr p = 0; p < 5; ++p) tlb.access(p * 4096);
  EXPECT_FALSE(tlb.access(0));  // page 0 was LRU-evicted by page 4
}

TEST(Dtlb, LruKeepsHotPages) {
  sim::Dtlb tlb(4, 4, 4096);
  for (sim::Addr p = 0; p < 4; ++p) tlb.access(p * 4096);
  tlb.access(0);                  // refresh page 0
  tlb.access(5 * 4096);           // evicts page 1 (LRU), not page 0
  EXPECT_TRUE(tlb.access(0));
  EXPECT_FALSE(tlb.access(1 * 4096));
}

TEST(Dtlb, ResetForgetsEverything) {
  sim::Dtlb tlb(8, 2, 4096);
  tlb.access(0x1000);
  tlb.reset();
  EXPECT_FALSE(tlb.access(0x1000));
}

// ---- drain queue --------------------------------------------------------------

TEST(DrainQueue, NoStallBelowCapacity) {
  sim::DrainQueue q(4, 1);
  for (int i = 0; i < 3; ++i) q.push(0, 100);
  q.retire_completed(0);
  EXPECT_EQ(q.stall_until_slot(0), 0u);
}

TEST(DrainQueue, StallsWhenFullUntilEarliestCompletion) {
  sim::DrainQueue q(2, 1);
  q.push(0, 10);   // completes at 10
  q.push(0, 10);   // serialized on one port: completes at 20
  q.retire_completed(5);
  EXPECT_EQ(q.stall_until_slot(5), 5u);  // wait until t=10
  q.retire_completed(10);
  EXPECT_EQ(q.stall_until_slot(10), 0u);
}

TEST(DrainQueue, PortsDrainInParallel) {
  sim::DrainQueue q(8, 4);
  // Four drains issued together with 4 ports: all complete at t=100.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.push(0, 100), 100u);
  // The fifth must wait for a port: completes at 200.
  EXPECT_EQ(q.push(0, 100), 200u);
}

TEST(DrainQueue, SlowDrainDoesNotBlockFastOnesOnOtherPorts) {
  sim::DrainQueue q(8, 2);
  EXPECT_EQ(q.push(0, 1000), 1000u);  // port A busy until 1000
  EXPECT_EQ(q.push(0, 5), 5u);        // port B: immediate
  EXPECT_EQ(q.push(10, 5), 15u);      // port B again at t=10
}

TEST(DrainQueue, RetireDropsCompleted) {
  sim::DrainQueue q(2, 2);
  q.push(0, 5);
  q.push(0, 7);
  q.retire_completed(6);
  EXPECT_EQ(q.size(), 1u);
  q.retire_completed(7);
  EXPECT_TRUE(q.empty());
}

// ---- line fill buffer ----------------------------------------------------------

TEST(LineFillBuffer, TracksPendingFills) {
  sim::LineFillBuffer lfb(4);
  lfb.insert(0x1000, 50, 0);
  EXPECT_TRUE(lfb.pending_fill(0x1000, 10).has_value());
  EXPECT_EQ(*lfb.pending_fill(0x1000, 10), 50u);
  EXPECT_FALSE(lfb.pending_fill(0x2000, 10).has_value());
}

TEST(LineFillBuffer, ExpiresCompletedFills) {
  sim::LineFillBuffer lfb(4);
  lfb.insert(0x1000, 50, 0);
  EXPECT_FALSE(lfb.pending_fill(0x1000, 50).has_value());
}

TEST(LineFillBuffer, MergingKeepsLatestCompletion) {
  sim::LineFillBuffer lfb(4);
  lfb.insert(0x1000, 50, 0);
  lfb.insert(0x1000, 80, 0);
  EXPECT_EQ(*lfb.pending_fill(0x1000, 10), 80u);
  EXPECT_EQ(lfb.size(), 1u);
}

TEST(LineFillBuffer, RecyclesOldestWhenFull) {
  sim::LineFillBuffer lfb(2);
  lfb.insert(0x1000, 100, 0);
  lfb.insert(0x2000, 200, 0);
  lfb.insert(0x3000, 300, 0);  // recycles the 0x1000 entry
  EXPECT_FALSE(lfb.pending_fill(0x1000, 0).has_value());
  EXPECT_TRUE(lfb.pending_fill(0x2000, 0).has_value());
  EXPECT_TRUE(lfb.pending_fill(0x3000, 0).has_value());
}

}  // namespace
