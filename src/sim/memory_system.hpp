// The coherent multicore memory hierarchy.
//
// Topology (modelled on Westmere DP):
//
//   core 0: L1D -- L2 --+
//   core 1: L1D -- L2 --+--- shared inclusive L3 --- DRAM
//   ...                 |
//
// * Private L1D and L2 keep per-line MESI state; the L2 is inclusive of the
//   L1D within a core (Westmere's L2 is non-inclusive; strict inclusion is a
//   simplification that does not change coherence-traffic signatures).
// * The shared L3 is inclusive of all private caches and acts as the snoop
//   filter: read misses snoop only an M/E owner, write misses and upgrades
//   snoop every holder. Snoop responses are counted at the responding core
//   (Intel SNOOP_RESPONSE.* semantics).
// * Stores retire into a store buffer and drain in the background; loads
//   merging with in-flight fills count as LFB hits. See store_buffer.hpp.
//
// The simulator counts ~60 raw events per core (raw_events.hpp); external
// tools can observe each access through AccessObserver.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.hpp"
#include "sim/directory.hpp"
#include "sim/machine_config.hpp"
#include "sim/observer.hpp"
#include "sim/raw_events.hpp"
#include "sim/store_buffer.hpp"
#include "sim/tlb.hpp"
#include "sim/types.hpp"

namespace fsml::sim {

class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& config);

  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  const MachineConfig& config() const { return config_; }
  std::uint32_t num_cores() const { return config_.num_cores; }

  /// Socket topology (one L3 and one memory controller per socket).
  std::uint32_t num_sockets() const {
    return static_cast<std::uint32_t>(l3s_.size());
  }
  std::uint32_t socket_of(CoreId core) const {
    return config_.topology.socket_of(core);
  }

  /// Home memory controller for `line`: pages interleave round-robin
  /// across sockets (the default first-touch-free NUMA policy). On a
  /// single-socket machine every line is local.
  std::uint32_t dram_home_socket(Addr line) const {
    const std::uint32_t sockets = num_sockets();
    if (sockets == 1) return 0;
    return static_cast<std::uint32_t>((line / config_.page_bytes) % sockets);
  }

  /// Performs one demand access from `core` at its local clock `now`.
  /// Accesses spanning multiple lines are split internally; the returned
  /// latency covers the whole access.
  AccessResult access(CoreId core, Addr addr, std::uint32_t size,
                      AccessType type, Cycles now);

  /// Accounts `n` retired non-memory instructions on `core`.
  void retire_instructions(CoreId core, std::uint64_t n);

  /// Accounts elapsed cycles on `core` (called by the scheduler at the end
  /// of a run so CYCLES_TOTAL matches each core's final clock).
  void account_cycles(CoreId core, Cycles cycles);

  const RawCounters& counters(CoreId core) const;
  RawCounters aggregate_counters() const;
  void reset_counters();

  /// PMU collection on/off (models running without `perf`): when disabled,
  /// no raw events are counted. Used by the overhead bench.
  void set_counting_enabled(bool enabled) { counting_ = enabled; }

  void add_observer(AccessObserver* observer);
  void remove_observer(AccessObserver* observer);

  // ---- introspection for tests -------------------------------------------
  const Cache& l1(CoreId core) const;
  const Cache& l2(CoreId core) const;
  const Cache& l3(std::uint32_t socket = 0) const { return l3s_.at(socket); }

  /// MESI single-writer invariant: for every line, at most one core holds it
  /// M or E, and if one does, no other core holds it in any valid state.
  bool check_coherence_invariant() const;

  /// L1D ⊆ L2 ⊆ L3 for every core.
  bool check_inclusion() const;

  /// The coherence directory (read-only; tests compare it to a full scan).
  const CoherenceDirectory& directory() const { return dir_; }

  /// Exact-sync invariant: the directory's owner/sharer records match a
  /// full linear scan of every core's L2, line for line. Always true — the
  /// directory is maintained through the caches' line-event hooks — but
  /// the fuzz tests re-prove it after every access, and debug builds
  /// cross-check every lookup against the scan (line_holders()).
  bool check_directory_invariant() const;

 private:
  struct CoreNode {
    Cache l1;
    Cache l2;
    Dtlb dtlb;
    DrainQueue store_buffer;
    LineFillBuffer lfb;
    RawCounters counters;
    /// Stream-prefetcher tracking table: expected next miss line per
    /// detected stream (real MLC streamers track ~16 streams; 8 suffices
    /// for our kernels). Round-robin replacement.
    std::array<Addr, 8> stream_table{};
    std::size_t stream_rr = 0;
    /// Context for the L2 line-event hook feeding the coherence directory.
    CoreId id = 0;
    CoherenceDirectory* directory = nullptr;

    CoreNode(const MachineConfig& cfg)
        : l1(cfg.l1d),
          l2(cfg.l2),
          dtlb(cfg.dtlb_entries, cfg.dtlb_ways, cfg.page_bytes),
          store_buffer(cfg.store_buffer_entries),
          lfb(cfg.lfb_entries) {}
  };

  /// Trampoline from a core's L2 into the directory (Cache::LineEventHook).
  static void l2_line_event(void* ctx, Addr line, MesiState from,
                            MesiState to);

  void count(CoreId core, RawEvent e, std::uint64_t n = 1) {
    if (counting_) nodes_[core].counters.add(e, n);
  }

  /// Result of servicing one line-granular request through L2/L3/peers.
  struct LineResult {
    ServiceLevel level;
    MesiState fill_state;  ///< state the line enters the requester's caches
    Cycles extra_latency = 0;  ///< queueing delay beyond the level latency
  };

  /// One line-granular access (addr is line-aligned).
  AccessResult access_line(CoreId core, Addr line, AccessType type,
                           Cycles now);

  /// Demand request that missed (or needs ownership) at L1: walks L2, L3,
  /// peers. Performs all coherence state changes and counting. Does not fill
  /// the requester's caches (caller does). `now` is the requester's clock,
  /// used by the shared DRAM-channel model.
  LineResult service_request(CoreId core, Addr line, bool want_ownership,
                             Cycles now);

  /// Who holds `line` in their L2 right now: the unique M/E owner (if any)
  /// plus a bitmask of every valid holder. This is the one question the
  /// coherence protocol asks about peers; the directory answers it in O(1).
  struct LineHolders {
    CoreId owner = CoherenceDirectory::kNoOwner;
    MesiState owner_state = MesiState::kInvalid;
    SharerMask sharers;  ///< all valid holders, including the owner
  };

#ifndef NDEBUG
  /// Debug-only reference: full linear scan over every core's L2.
  LineHolders scan_line_holders(Addr line) const;
#endif

  /// Directory-served lookup; debug builds cross-check every answer
  /// against scan_line_holders().
  LineHolders line_holders(Addr line) const;

  /// Cycles of queueing delay at `line`'s home-socket DRAM channel for an
  /// access issued at `now`; advances that channel's next-free time and
  /// open-row state. Demand requests preempt queued prefetch traffic
  /// (FR-FCFS demand priority): their queueing delay is bounded by a couple
  /// of in-flight transfers, never the full prefetch backlog.
  Cycles dram_queue_delay(Cycles now, Addr line, bool demand = true);

  /// Prefetch admission control: maximum run-ahead of the channel state
  /// before new prefetches are refused, and the sentinel returned for a
  /// refused prefetch.
  static constexpr Cycles kPrefetchAdmissionWindow = 2048;
  static constexpr Cycles kPrefetchDropped = ~Cycles{0};

  /// Next-line stream prefetcher (models Westmere's MLC streamer): when a
  /// demand load continues a sequential line stream, pulls lines ahead of it
  /// into L2 in the background, running `kPrefetchDegree` lines ahead.
  /// Prefetches consume DRAM channel bandwidth but add no latency to the
  /// triggering access, and never steal a line another core owns — which is
  /// why linear streams are cheap while strided/random (bad-ma) and
  /// falsely-shared (bad-fs) traffic sees the full miss costs.
  /// `allocate` is true on demand misses (may start tracking a new stream).
  void maybe_stream_prefetch(CoreId core, Addr line, Cycles now,
                             bool allocate);

  /// Snoop `peer` for `line`; downgrades (read) or invalidates (write) and
  /// counts responder-side events. Returns the peer's prior state.
  MesiState snoop_peer(CoreId peer, Addr line, bool for_ownership);

  /// Fills `line`, which core's L2 does not hold, into that L2 (and, unless
  /// `also_l1` is false, L1) in `state`, handling evictions, inclusion
  /// back-invalidations and writeback counting. Prefetches leave L1
  /// unfilled.
  void fill_private(CoreId core, Addr line, MesiState state,
                    bool also_l1 = true);

  /// Fills `line`, which core's L2 holds in `state` and its L1 does not,
  /// into the L1, writing a dirty victim back into the L2.
  void fill_l1(CoreId core, Addr line, MesiState state);

  /// Fills into `socket`'s L3, back-invalidating the victim line in that
  /// socket's cores.
  void fill_l3(std::uint32_t socket, Addr line, MesiState state);

  /// Writes back a dirty private line into `socket`'s L3.
  void writeback_to_l3(std::uint32_t socket, Addr line);

  /// Removes the line from every L3 except `keep_socket` (used when a core
  /// takes exclusive ownership). Callers must have invalidated the other
  /// sockets' private copies first.
  void invalidate_other_l3s(std::uint32_t keep_socket, Addr line);

  void record_fill_transition(CoreId core, MesiState state);

  MachineConfig config_;
  SharerIndex sharer_index_;  ///< core -> (socket word, bit) mapping
  CoherenceDirectory dir_;  ///< per-line owner/sharer index over all L2s
  std::vector<CoreNode> nodes_;
  std::vector<Cache> l3s_;  ///< one per socket
  struct DramBank {
    Cycles free_at = 0;
    Addr open_row = ~Addr{0};
  };
  // Two independent queueing domains approximate an FR-FCFS controller
  // with reserved service shares: demand requests contend only with other
  // demand requests (this is what makes random-access workloads hit the
  // bandwidth wall), while prefetches draw on their own share and are
  // refused — never queued — once it backs up beyond the admission window.
  // A prefetch backlog therefore can never land on a demand miss, and
  // refusing prefetches cannot spiral (demand does not consume the
  // prefetch share).
  struct DramController {
    std::vector<DramBank> banks;         ///< prefetch service share
    std::vector<DramBank> demand_banks;  ///< demand service share
    Cycles bus_free = 0;
    Cycles demand_bus_free = 0;
  };
  std::vector<DramController> dram_;  ///< one controller per socket
  bool counting_ = true;
  std::vector<AccessObserver*> observers_;
};

}  // namespace fsml::sim
