// MESI coherence tests: exact event accounting for canonical scenarios
// (cold store, read-after-modify HITM, upgrade, back-invalidation), snoop
// attribution at the responder, the stream prefetcher, the DRAM row-buffer
// model, and randomized stress checks of the coherence and inclusion
// invariants.
#include <gtest/gtest.h>

#include <array>

#include "sim/machine_config.hpp"
#include "sim/memory_system.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;
using sim::AccessType;
using sim::MesiState;
using sim::RawEvent;
using sim::ServiceLevel;

sim::MachineConfig cfg2() { return sim::MachineConfig::westmere_dp(2); }

constexpr sim::Addr kLine = 0x10000;

TEST(Coherence, ColdStoreMissFetchesOwnershipFromDram) {
  sim::MemorySystem mem(cfg2());
  const auto r = mem.access(0, kLine, 8, AccessType::kStore, 0);
  EXPECT_EQ(r.level, ServiceLevel::kDram);
  const auto& c = mem.counters(0);
  EXPECT_EQ(c.get(RawEvent::kStoresRetired), 1u);
  EXPECT_EQ(c.get(RawEvent::kL1dStoreMiss), 1u);
  EXPECT_EQ(c.get(RawEvent::kL2DemandIState), 1u);
  EXPECT_EQ(c.get(RawEvent::kL2StMiss), 1u);
  EXPECT_EQ(c.get(RawEvent::kOffcoreRfo), 1u);
  EXPECT_EQ(c.get(RawEvent::kDramReads), 1u);
  EXPECT_EQ(c.get(RawEvent::kL2LinesInM), 1u);
  EXPECT_EQ(c.get(RawEvent::kTransIM), 1u);
  EXPECT_EQ(mem.l1(0).state_of(kLine), MesiState::kModified);
  EXPECT_EQ(mem.l2(0).state_of(kLine), MesiState::kModified);
  EXPECT_TRUE(mem.l3().contains(kLine));
}

TEST(Coherence, StoreHitOnOwnModifiedLineIsCheap) {
  sim::MemorySystem mem(cfg2());
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  const auto r = mem.access(0, kLine, 8, AccessType::kStore, 100);
  EXPECT_EQ(r.level, ServiceLevel::kL1);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kL1dStoreHit), 1u);
}

TEST(Coherence, ReadOfPeerModifiedLineIsHitm) {
  sim::MemorySystem mem(cfg2());
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  const auto r = mem.access(1, kLine, 8, AccessType::kLoad, 1000);
  EXPECT_EQ(r.level, ServiceLevel::kPeerHitM);
  // Responder-side accounting (core 0 answered HITM).
  EXPECT_EQ(mem.counters(0).get(RawEvent::kSnoopRequestsReceived), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kSnoopResponseHitM), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kTransMS), 1u);
  // Requester-side accounting.
  EXPECT_EQ(mem.counters(1).get(RawEvent::kHitmTransfersIn), 1u);
  EXPECT_EQ(mem.counters(1).get(RawEvent::kMemLoadRetiredPeer), 1u);
  // Both copies end Shared.
  EXPECT_EQ(mem.l2(0).state_of(kLine), MesiState::kShared);
  EXPECT_EQ(mem.l2(1).state_of(kLine), MesiState::kShared);
  EXPECT_TRUE(mem.check_coherence_invariant());
}

TEST(Coherence, StoreToSharedLineUpgrades) {
  sim::MemorySystem mem(cfg2());
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  mem.access(1, kLine, 8, AccessType::kLoad, 1000);  // both Shared now
  const auto r = mem.access(1, kLine, 8, AccessType::kStore, 2000);
  EXPECT_EQ(r.level, ServiceLevel::kUpgrade);
  EXPECT_EQ(mem.counters(1).get(RawEvent::kL2RfoHitS), 1u);
  EXPECT_EQ(mem.counters(1).get(RawEvent::kRfoUpgrades), 1u);
  EXPECT_EQ(mem.counters(1).get(RawEvent::kTransSM), 1u);
  EXPECT_EQ(mem.counters(1).get(RawEvent::kInvalidationsSent), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kInvalidationsReceived), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kSnoopResponseHit), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kTransSI), 1u);
  EXPECT_EQ(mem.l2(0).state_of(kLine), MesiState::kInvalid);
  EXPECT_EQ(mem.l2(1).state_of(kLine), MesiState::kModified);
}

TEST(Coherence, StoreStealsPeerModifiedLine) {
  sim::MemorySystem mem(cfg2());
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  const auto r = mem.access(1, kLine, 8, AccessType::kStore, 1000);
  EXPECT_EQ(r.level, ServiceLevel::kPeerHitM);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kSnoopResponseHitM), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kTransMI), 1u);
  EXPECT_EQ(mem.l2(0).state_of(kLine), MesiState::kInvalid);
  EXPECT_EQ(mem.l2(1).state_of(kLine), MesiState::kModified);
}

TEST(Coherence, ReadOfPeerExclusiveLineDowngrades) {
  sim::MemorySystem mem(cfg2());
  mem.access(0, kLine, 8, AccessType::kLoad, 0);  // E at core 0
  EXPECT_EQ(mem.l2(0).state_of(kLine), MesiState::kExclusive);
  const auto r = mem.access(1, kLine, 8, AccessType::kLoad, 1000);
  EXPECT_EQ(r.level, ServiceLevel::kPeerHit);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kSnoopResponseHitE), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kTransES), 1u);
  EXPECT_EQ(mem.l2(0).state_of(kLine), MesiState::kShared);
  EXPECT_EQ(mem.l2(1).state_of(kLine), MesiState::kShared);
}

TEST(Coherence, ReadSharedByTwoPeersComesFromL3WithoutSnoops) {
  sim::MemorySystem mem(sim::MachineConfig::westmere_dp(3));
  mem.access(0, kLine, 8, AccessType::kLoad, 0);
  mem.access(1, kLine, 8, AccessType::kLoad, 100);  // S everywhere
  mem.reset_counters();
  const auto r = mem.access(2, kLine, 8, AccessType::kLoad, 1000);
  EXPECT_EQ(r.level, ServiceLevel::kL3);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kSnoopRequestsReceived), 0u);
  EXPECT_EQ(mem.counters(1).get(RawEvent::kSnoopRequestsReceived), 0u);
}

TEST(Coherence, RmwIsLoadPlusStore) {
  sim::MemorySystem mem(cfg2());
  mem.access(0, kLine, 8, AccessType::kRmw, 0);
  const auto& c = mem.counters(0);
  EXPECT_EQ(c.get(RawEvent::kAtomicsRetired), 1u);
  EXPECT_EQ(c.get(RawEvent::kInstructionsRetired), 1u);
  // Load part missed to DRAM, store part upgraded the E line.
  EXPECT_EQ(c.get(RawEvent::kL1dLoadMiss), 1u);
  EXPECT_EQ(c.get(RawEvent::kTransEM), 1u);
  EXPECT_EQ(mem.l1(0).state_of(kLine), MesiState::kModified);
}

TEST(Coherence, RmwOnPeerModifiedLinePaysHitmSynchronously) {
  sim::MemorySystem mem(cfg2());
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  const auto r = mem.access(1, kLine, 8, AccessType::kRmw, 1000);
  // The load half waits for the cross-core transfer.
  EXPECT_GE(r.latency, cfg2().cycles.peer_hitm);
  EXPECT_EQ(mem.counters(1).get(RawEvent::kHitmTransfersIn), 1u);
}

TEST(Coherence, LineCrossingAccessTouchesBothLines) {
  sim::MemorySystem mem(cfg2());
  const auto r = mem.access(0, kLine + 60, 8, AccessType::kLoad, 0);
  (void)r;
  EXPECT_TRUE(mem.l1(0).contains(kLine));
  EXPECT_TRUE(mem.l1(0).contains(kLine + 64));
  EXPECT_EQ(mem.counters(0).get(RawEvent::kLoadsRetired), 1u);
  EXPECT_EQ(mem.counters(0).get(RawEvent::kL1dLoadMiss), 2u);
}

TEST(Coherence, CountingDisabledLeavesCountersZero) {
  sim::MemorySystem mem(cfg2());
  mem.set_counting_enabled(false);
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  mem.access(1, kLine, 8, AccessType::kLoad, 100);
  EXPECT_EQ(mem.aggregate_counters().get(RawEvent::kInstructionsRetired), 0u);
  EXPECT_EQ(mem.aggregate_counters().get(RawEvent::kSnoopResponseHitM), 0u);
  // Coherence still behaves normally.
  EXPECT_EQ(mem.l2(1).state_of(kLine), MesiState::kShared);
}

// ---- prefetcher ---------------------------------------------------------------

TEST(Prefetcher, SequentialStreamGetsCovered) {
  sim::MemorySystem mem(cfg2());
  // Stream 64 consecutive lines; after the ramp, demand misses should be
  // rare and prefetches numerous.
  for (int i = 0; i < 64; ++i)
    mem.access(0, kLine + 64ull * i, 8, AccessType::kLoad,
               static_cast<sim::Cycles>(i) * 50);
  const auto& c = mem.counters(0);
  EXPECT_GT(c.get(RawEvent::kHwPrefetchesIssued), 40u);
  EXPECT_LT(c.get(RawEvent::kMemLoadRetiredDram), 10u);
}

TEST(Prefetcher, RandomAccessGetsNoCoverage) {
  sim::MemorySystem mem(cfg2());
  util::Rng rng(1);
  for (int i = 0; i < 64; ++i)
    mem.access(0, kLine + 64 * (rng.next_below(4096) * 7919 % 4096), 8,
               AccessType::kLoad, static_cast<sim::Cycles>(i) * 50);
  EXPECT_LT(mem.counters(0).get(RawEvent::kHwPrefetchesIssued), 8u);
}

TEST(Prefetcher, NeverStealsPeerOwnedLines) {
  sim::MemorySystem mem(cfg2());
  // Core 1 owns a line in the middle of core 0's stream.
  const sim::Addr owned = kLine + 64 * 5;
  mem.access(1, owned, 8, AccessType::kStore, 0);
  for (int i = 0; i < 12; ++i)
    mem.access(0, kLine + 64ull * i, 8, AccessType::kLoad,
               1000 + static_cast<sim::Cycles>(i) * 50);
  // Core 1's copy survived until core 0's *demand* access reached it.
  EXPECT_TRUE(mem.check_coherence_invariant());
  EXPECT_LE(mem.counters(1).get(RawEvent::kSnoopRequestsReceived), 1u);
}

// ---- DRAM row-buffer model ------------------------------------------------------

TEST(DramModel, QueueDelayGrowsUnderContention) {
  sim::MachineConfig cfg = sim::MachineConfig::westmere_dp(4);
  sim::MemorySystem mem(cfg);
  // Many same-time random-row reads from different cores: later ones queue.
  sim::Cycles first_latency = 0, last_latency = 0;
  for (sim::CoreId core = 0; core < 4; ++core) {
    const auto r = mem.access(core, 0x100000 + 0x10000ull * core, 8,
                              AccessType::kLoad, 0);
    if (core == 0) first_latency = r.latency;
    last_latency = r.latency;
  }
  EXPECT_GT(last_latency, first_latency);
}

TEST(DramModel, RowHitsOccupyBankLessThanRowMisses) {
  sim::MachineConfig cfg = sim::MachineConfig::westmere_dp(1);
  EXPECT_LT(cfg.cycles.dram_bus_occupancy,
            cfg.cycles.dram_row_miss_occupancy);
  EXPECT_GE(cfg.cycles.dram_banks, 2u);
}

TEST(DramModel, InterleavedStreamsShareBanksFairly) {
  // Eight concurrent streaming threads must finish within a small spread —
  // the single-open-row model trapped laggards in ever-growing queues.
  constexpr std::uint32_t kThreads = 8;
  sim::MemorySystem mem(sim::MachineConfig::westmere_dp(kThreads));
  std::array<sim::Cycles, kThreads> clock{};
  constexpr int kLines = 256;
  for (int i = 0; i < kLines; ++i) {
    for (sim::CoreId t = 0; t < kThreads; ++t) {
      const sim::Addr addr = 0x100000 + 0x40000ull * t +
                             64ull * static_cast<sim::Addr>(i);
      clock[t] += mem.access(t, addr, 8, AccessType::kLoad, clock[t]).latency;
    }
  }
  const auto [lo, hi] = std::minmax_element(clock.begin(), clock.end());
  EXPECT_LT(*hi - *lo, *hi / 3) << "unfair DRAM scheduling";
}

// ---- randomized invariants -------------------------------------------------------

struct StressParams {
  std::uint32_t cores;
  std::uint64_t seed;
};

class CoherenceStress
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CoherenceStress, InvariantsHoldUnderRandomTraffic) {
  const auto [cores, seed] = GetParam();
  sim::MemorySystem mem(
      sim::MachineConfig::tiny(static_cast<std::uint32_t>(cores)));
  util::Rng rng(static_cast<std::uint64_t>(seed));
  // Tight address range on a tiny machine maximizes evictions, sharing and
  // back-invalidation interplay.
  for (int op = 0; op < 4000; ++op) {
    const auto core = static_cast<sim::CoreId>(rng.next_below(
        static_cast<std::uint64_t>(cores)));
    const sim::Addr addr = 0x8000 + rng.next_below(256) * 32;
    const auto type = static_cast<AccessType>(rng.next_below(3));
    mem.access(core, addr, 8, type, static_cast<sim::Cycles>(op) * 3);
    if (op % 256 == 0) {
      ASSERT_TRUE(mem.check_coherence_invariant()) << "op " << op;
      ASSERT_TRUE(mem.check_inclusion()) << "op " << op;
    }
  }
  EXPECT_TRUE(mem.check_coherence_invariant());
  EXPECT_TRUE(mem.check_inclusion());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceStress,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(11, 22, 33)));

// ---- coherence directory ---------------------------------------------------
//
// The directory must mirror every L2's MESI state *exactly* — same owner,
// same sharer set, nothing stale — after every access.

TEST(Directory, TracksOwnerAndSharersThroughProtocolTransitions) {
  sim::MemorySystem mem(cfg2());
  // Cold store: core 0 owns the line Modified.
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  const sim::CoherenceDirectory::Entry* e = mem.directory().lookup(kLine);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 0u);
  EXPECT_EQ(e->owner_state, MesiState::kModified);
  EXPECT_EQ(e->sharers.word(0), 0b01u);

  // Peer read (HITM): both end Shared, no owner.
  mem.access(1, kLine, 8, AccessType::kLoad, 1000);
  e = mem.directory().lookup(kLine);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, sim::CoherenceDirectory::kNoOwner);
  EXPECT_EQ(e->sharers.word(0), 0b11u);

  // Upgrade: core 1 invalidates core 0 and takes sole ownership.
  mem.access(1, kLine, 8, AccessType::kStore, 2000);
  e = mem.directory().lookup(kLine);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 1u);
  EXPECT_EQ(e->owner_state, MesiState::kModified);
  EXPECT_EQ(e->sharers.word(0), 0b10u);
  EXPECT_TRUE(mem.check_directory_invariant());
}

TEST(Directory, EvictionRemovesTheEvictedCoreFromTheEntry) {
  // Tiny L2: 4 ways. Stream enough conflicting lines through one set to
  // evict the first, and the directory must forget it.
  sim::MemorySystem mem(sim::MachineConfig::tiny(2));
  const auto& geo = mem.l2(0).geometry();
  const sim::Addr stride =
      geo.num_sets() * geo.line_bytes;  // same set every time
  mem.access(0, kLine, 8, AccessType::kLoad, 0);
  ASSERT_NE(mem.directory().lookup(kLine), nullptr);
  for (sim::Addr i = 1; i <= geo.ways + 1; ++i)
    mem.access(0, kLine + i * stride, 8, AccessType::kLoad, 100 * i);
  EXPECT_FALSE(mem.l2(0).contains(kLine));
  EXPECT_EQ(mem.directory().lookup(kLine), nullptr);
  EXPECT_TRUE(mem.check_directory_invariant());
}

TEST(Directory, DirtyEvictionWritebackKeepsDirectoryExact) {
  // A Modified line evicted from L2 writes back to L3; the directory entry
  // must drop the owner along with the line.
  sim::MemorySystem mem(sim::MachineConfig::tiny(2));
  const auto& geo = mem.l2(0).geometry();
  const sim::Addr stride = geo.num_sets() * geo.line_bytes;
  mem.access(0, kLine, 8, AccessType::kStore, 0);  // Modified at core 0
  for (sim::Addr i = 1; i <= geo.ways + 1; ++i)
    mem.access(0, kLine + i * stride, 8, AccessType::kStore, 100 * i);
  EXPECT_FALSE(mem.l2(0).contains(kLine));
  EXPECT_EQ(mem.directory().lookup(kLine), nullptr);
  EXPECT_GT(mem.counters(0).get(RawEvent::kL2LinesOutDemandDirty), 0u);
  EXPECT_TRUE(mem.check_directory_invariant());
}

TEST(Directory, L3BackInvalidationDropsPrivateCopies) {
  // Overflow the tiny shared L3: its inclusion back-invalidations must
  // propagate into the directory (the classic stale-sharer trap).
  sim::MemorySystem mem(sim::MachineConfig::tiny(2));
  const std::uint64_t l3_lines = mem.l3().geometry().num_lines();
  for (sim::Addr i = 0; i < 2 * l3_lines; ++i)
    mem.access(i % 2, kLine + 64 * i, 8,
               i % 3 == 0 ? AccessType::kStore : AccessType::kLoad, 10 * i);
  EXPECT_TRUE(mem.check_directory_invariant());
  EXPECT_TRUE(mem.check_inclusion());
}

// Validation coverage for the core-count limits (>64 cores across sockets
// accepted, >64 per socket rejected, 0-socket/ragged rejected) lives in
// tests/numa_test.cpp (NumaValidation): the single-word 64-core cap became
// a per-socket cap when the sharer mask went hierarchical.

// Params: (cores per socket, sockets, seed). The differential fuzz runs on
// single-socket and 2/4-socket machines: the hierarchical-mask directory
// must match the brute-force reference scan over all peer L2s after every
// access, and the local/remote HITM split must always sum to the
// mode-oblivious total.
class DirectoryFuzz
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DirectoryFuzz, MatchesReferenceScanAfterEveryAccess) {
  const auto [per_socket, sockets, seed] = GetParam();
  const std::uint32_t cores = static_cast<std::uint32_t>(per_socket) *
                              static_cast<std::uint32_t>(sockets);
  sim::MachineConfig cfg = sim::MachineConfig::tiny(cores);
  if (sockets > 1)
    cfg.topology = {static_cast<std::uint32_t>(sockets),
                    static_cast<std::uint32_t>(per_socket)};
  sim::MemorySystem mem(cfg);
  ASSERT_EQ(mem.num_sockets(), static_cast<std::uint32_t>(sockets));
  util::Rng rng(static_cast<std::uint64_t>(seed));
  // Tight range on a tiny machine: maximal eviction/upgrade/writeback and
  // back-invalidation interplay, checked against the reference scan after
  // *every* access (check_directory_invariant is the full comparison).
  for (int op = 0; op < 3000; ++op) {
    const auto core = static_cast<sim::CoreId>(
        rng.next_below(static_cast<std::uint64_t>(cores)));
    const sim::Addr addr = 0x8000 + rng.next_below(512) * 24;
    const auto type = static_cast<AccessType>(rng.next_below(3));
    mem.access(core, addr, 8, type, static_cast<sim::Cycles>(op) * 3);
    ASSERT_TRUE(mem.check_directory_invariant()) << "op " << op;
    // NUMA counter invariant: the local/remote splits partition the
    // mode-oblivious totals exactly, on every core, after every access.
    const auto& c = mem.counters(core);
    ASSERT_EQ(c.get(RawEvent::kHitmTransfersLocal) +
                  c.get(RawEvent::kHitmTransfersRemote),
              c.get(RawEvent::kHitmTransfersIn))
        << "op " << op;
    ASSERT_EQ(c.get(RawEvent::kDramReadsLocal) +
                  c.get(RawEvent::kDramReadsRemote),
              c.get(RawEvent::kDramReads))
        << "op " << op;
  }
  EXPECT_TRUE(mem.check_coherence_invariant());
  EXPECT_TRUE(mem.check_inclusion());
  // Aggregate version of the same partition invariants.
  const sim::RawCounters total = mem.aggregate_counters();
  EXPECT_EQ(total.get(RawEvent::kHitmTransfersLocal) +
                total.get(RawEvent::kHitmTransfersRemote),
            total.get(RawEvent::kHitmTransfersIn));
  EXPECT_EQ(total.get(RawEvent::kDramReadsLocal) +
                total.get(RawEvent::kDramReadsRemote),
            total.get(RawEvent::kDramReads));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DirectoryFuzz,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 2, 4),
                       ::testing::Values(7, 21)));

TEST(Observer, DeliversEveryAccessWithFinalLevel) {
  struct Recorder : sim::AccessObserver {
    std::vector<sim::AccessRecord> records;
    std::uint64_t instructions = 0;
    void on_access(const sim::AccessRecord& r) override {
      records.push_back(r);
    }
    void on_instructions(sim::CoreId, std::uint64_t n) override {
      instructions += n;
    }
  } recorder;

  sim::MemorySystem mem(cfg2());
  mem.add_observer(&recorder);
  mem.access(0, kLine, 8, AccessType::kStore, 0);
  mem.access(1, kLine + 4, 4, AccessType::kLoad, 100);
  mem.retire_instructions(0, 7);
  ASSERT_EQ(recorder.records.size(), 2u);
  EXPECT_EQ(recorder.records[0].core, 0u);
  EXPECT_EQ(recorder.records[0].type, AccessType::kStore);
  EXPECT_EQ(recorder.records[1].level, ServiceLevel::kPeerHitM);
  EXPECT_EQ(recorder.records[1].size, 4u);
  EXPECT_EQ(recorder.instructions, 7u);

  mem.remove_observer(&recorder);
  mem.access(0, kLine, 8, AccessType::kLoad, 200);
  EXPECT_EQ(recorder.records.size(), 2u);
}

}  // namespace
