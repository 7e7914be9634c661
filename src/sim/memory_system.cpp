#include "sim/memory_system.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace fsml::sim {

namespace {
MachineConfig validated(MachineConfig config) {
  config.validate();
  return config;
}

// Stream-prefetcher look-ahead window and burst size. Prefetches are issued
// in bursts of consecutive lines so the DRAM bank sees row hits:
// steady-state one-line-at-a-time prefetching from many interleaved streams
// would turn every transfer into a row activation and saturate the channel.
constexpr Addr kPrefetchAhead = 8;
constexpr Addr kPrefetchBurst = 4;
}  // namespace

MemorySystem::MemorySystem(const MachineConfig& config)
    : config_(validated(config)),
      sharer_index_(config_.topology),
      dir_(config_.topology, config_.num_cores,
           std::uint64_t{config_.num_cores} * config_.l2.num_lines()) {
  nodes_.reserve(config_.num_cores);
  for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
    nodes_.emplace_back(config_);
    CoreNode& node = nodes_.back();
    node.id = i;
    node.directory = &dir_;
    // Every L2 state transition — fill, upgrade, downgrade, invalidate,
    // eviction — flows into the directory, which is what keeps it exactly
    // in sync without per-site bookkeeping. (nodes_ is fully reserved, so
    // &node stays valid for the lifetime of the MemorySystem.)
    node.l2.set_line_event_hook(&MemorySystem::l2_line_event, &node);
  }
  const std::uint32_t sockets = config_.topology.sockets;
  for (std::uint32_t sock = 0; sock < sockets; ++sock)
    l3s_.emplace_back(config_.l3);
  // One memory controller per socket; lines are homed by page interleave.
  dram_.resize(sockets);
  const std::size_t banks =
      std::max<std::uint32_t>(config_.cycles.dram_banks, 1);
  for (DramController& ctl : dram_) {
    ctl.banks.resize(banks);
    ctl.demand_banks.resize(banks);
  }
}

const RawCounters& MemorySystem::counters(CoreId core) const {
  FSML_CHECK(core < nodes_.size());
  return nodes_[core].counters;
}

RawCounters MemorySystem::aggregate_counters() const {
  RawCounters total;
  for (const CoreNode& node : nodes_) total += node.counters;
  return total;
}

void MemorySystem::reset_counters() {
  for (CoreNode& node : nodes_) node.counters.reset();
}

void MemorySystem::add_observer(AccessObserver* observer) {
  FSML_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void MemorySystem::remove_observer(AccessObserver* observer) {
  std::erase(observers_, observer);
}

const Cache& MemorySystem::l1(CoreId core) const {
  FSML_CHECK(core < nodes_.size());
  return nodes_[core].l1;
}

const Cache& MemorySystem::l2(CoreId core) const {
  FSML_CHECK(core < nodes_.size());
  return nodes_[core].l2;
}

void MemorySystem::l2_line_event(void* ctx, Addr line, MesiState from,
                                 MesiState to) {
  CoreNode* node = static_cast<CoreNode*>(ctx);
  node->directory->on_line_event(node->id, line, from, to);
}

void MemorySystem::retire_instructions(CoreId core, std::uint64_t n) {
  FSML_DCHECK(core < nodes_.size());
  count(core, RawEvent::kInstructionsRetired, n);
  if (!observers_.empty())
    for (AccessObserver* obs : observers_) obs->on_instructions(core, n);
}

void MemorySystem::account_cycles(CoreId core, Cycles cycles) {
  FSML_DCHECK(core < nodes_.size());
  count(core, RawEvent::kCyclesTotal, cycles);
}

AccessResult MemorySystem::access(CoreId core, Addr addr, std::uint32_t size,
                                  AccessType type, Cycles now) {
  FSML_DCHECK(core < nodes_.size());
  FSML_DCHECK(size >= 1);

  // One instruction retires per access.
  count(core, RawEvent::kInstructionsRetired, 1);
  switch (type) {
    case AccessType::kLoad:
      count(core, RawEvent::kLoadsRetired, 1);
      break;
    case AccessType::kStore:
      count(core, RawEvent::kStoresRetired, 1);
      break;
    case AccessType::kRmw:
      count(core, RawEvent::kAtomicsRetired, 1);
      break;
  }

  const std::uint32_t line_bytes = config_.l1d.line_bytes;
  const Addr first_line = config_.l1d.line_addr(addr);
  const Addr last_line = config_.l1d.line_addr(addr + size - 1);

  AccessResult total{};
  bool first = true;
  for (Addr line = first_line; line <= last_line; line += line_bytes) {
    AccessResult r = access_line(core, line, type, now + total.latency);
    total.latency += r.latency;
    total.dtlb_miss = total.dtlb_miss || r.dtlb_miss;
    if (first || static_cast<int>(r.level) > static_cast<int>(total.level))
      total.level = r.level;  // report the deepest service level
    first = false;
  }

  if (!observers_.empty()) {
    const AccessRecord record{core, addr, size, type, total.level, now};
    for (AccessObserver* obs : observers_) obs->on_access(record);
  }
  return total;
}

AccessResult MemorySystem::access_line(CoreId core, Addr line,
                                       AccessType type, Cycles now) {
  // A read-modify-write is a load (paying its miss latency synchronously —
  // the reason `x += v` on a contended line stalls the pipeline) followed
  // by a store that drains through the store buffer.
  if (type == AccessType::kRmw) {
    AccessResult load_part = access_line(core, line, AccessType::kLoad, now);
    const AccessResult store_part =
        access_line(core, line, AccessType::kStore, now + load_part.latency);
    load_part.latency += store_part.latency;
    load_part.dtlb_miss = load_part.dtlb_miss || store_part.dtlb_miss;
    if (static_cast<int>(store_part.level) >
        static_cast<int>(load_part.level))
      load_part.level = store_part.level;
    return load_part;
  }

  CoreNode& node = nodes_[core];
  const CycleModel& cm = config_.cycles;
  AccessResult result{};

  // Address translation first; the walk penalty applies to the whole access.
  if (node.dtlb.access(line)) {
    count(core, RawEvent::kDtlbHit, 1);
  } else {
    count(core, RawEvent::kDtlbMiss, 1);
    result.dtlb_miss = true;
    result.latency += cm.tlb_walk;
  }

  // Each step below scans a cache set at most once: a lookup returns a
  // Cache::Slot that later state changes on the same line reuse.
  if (type == AccessType::kLoad) {
    if (node.l1.touch(line).resident()) {
      // Present, but is the fill that brought it still in flight? Then the
      // load merges with the fill buffer entry rather than hitting L1
      // proper (MEM_LOAD_RETIRED.HIT_LFB) and waits for the fill.
      if (const auto completion = node.lfb.pending_fill(line, now)) {
        count(core, RawEvent::kL1dHitLfb, 1);
        result.level = ServiceLevel::kLfb;
        const Cycles wait = *completion > now ? *completion - now : 0;
        result.latency += std::max<Cycles>(cm.lfb_hit, wait);
        count(core, RawEvent::kLoadStallCycles,
              result.latency > cm.l1_hit ? result.latency - cm.l1_hit : 0);
        return result;
      }
      count(core, RawEvent::kL1dLoadHit, 1);
      count(core, RawEvent::kMemLoadRetiredL1Hit, 1);
      result.level = ServiceLevel::kL1;
      result.latency += cm.l1_hit;
      return result;
    }

    count(core, RawEvent::kL1dLoadMiss, 1);
    count(core, RawEvent::kL2DemandRequests, 1);
    const Cache::Slot l2 = node.l2.touch(line);
    if (l2.resident()) {
      count(core, RawEvent::kL2Hit, 1);
      count(core, RawEvent::kMemLoadRetiredL2Hit, 1);
      fill_l1(core, line, node.l2.state(l2));  // L2 state unchanged
      result.level = ServiceLevel::kL2;
      result.latency += cm.l2_hit;
      // Hits on prefetched lines keep the streamer running ahead.
      maybe_stream_prefetch(core, line, now, /*allocate=*/false);
    } else {
      count(core, RawEvent::kL2DemandIState, 1);
      count(core, RawEvent::kL2Miss, 1);
      count(core, RawEvent::kL2LdMiss, 1);
      count(core, RawEvent::kOffcoreDemandRdData, 1);
      const LineResult lr =
          service_request(core, line, /*want_ownership=*/false,
                          now + result.latency);
      fill_private(core, line, lr.fill_state);
      result.level = lr.level;
      result.latency += cm.latency_for(lr.level) + lr.extra_latency;
      node.lfb.insert(line, now + result.latency, now);
      // Prefetches overlap the demand miss: issue them at the demand's
      // issue time, not after its latency.
      maybe_stream_prefetch(core, line, now, /*allocate=*/true);
      switch (lr.level) {
        case ServiceLevel::kL3:
          count(core, RawEvent::kMemLoadRetiredL3Hit, 1);
          break;
        case ServiceLevel::kDram:
          count(core, RawEvent::kMemLoadRetiredDram, 1);
          break;
        case ServiceLevel::kPeerHit:
        case ServiceLevel::kPeerHitM:
          count(core, RawEvent::kMemLoadRetiredPeer, 1);
          break;
        default:
          break;
      }
    }
    count(core, RawEvent::kLoadStallCycles,
          result.latency > cm.l1_hit ? result.latency - cm.l1_hit : 0);
    return result;
  }

  // --- Store / RMW path ----------------------------------------------------
  // Determine the drain latency (the background cost of obtaining ownership
  // and writing the line); the core itself only pays commit + stall.
  Cycles drain_latency = 0;
  bool fill_lfb = false;

  const Cache::Slot l1 = node.l1.touch(line);
  const MesiState s1 = node.l1.state(l1);
  if (s1 == MesiState::kModified) {
    count(core, RawEvent::kL1dStoreHit, 1);
    result.level = ServiceLevel::kL1;
    drain_latency = cm.l1_hit;
  } else if (s1 == MesiState::kExclusive) {
    count(core, RawEvent::kL1dStoreHit, 1);
    count(core, RawEvent::kTransEM, 1);
    node.l1.set_state(l1, MesiState::kModified);
    node.l2.set_state(line, MesiState::kModified);
    result.level = ServiceLevel::kL1;
    drain_latency = cm.l1_hit;
  } else {
    // L1 state always equals L2 state, so an L1 miss with an L2 M/E hit
    // leaves L1 without the line, and an S hit means both hold it S.
    count(core, RawEvent::kL1dStoreMiss, 1);
    count(core, RawEvent::kL2DemandRequests, 1);
    const Cache::Slot l2 = node.l2.touch(line);
    const MesiState s2 = node.l2.state(l2);
    if (s2 == MesiState::kModified || s2 == MesiState::kExclusive) {
      count(core, RawEvent::kL2Hit, 1);
      if (s2 == MesiState::kExclusive) count(core, RawEvent::kTransEM, 1);
      node.l2.set_state(l2, MesiState::kModified);
      fill_l1(core, line, MesiState::kModified);
      result.level = ServiceLevel::kL2;
      drain_latency = cm.l2_hit;
      // Keep a detected RFO stream running ahead.
      maybe_stream_prefetch(core, line, now, /*allocate=*/false);
    } else if (s2 == MesiState::kShared) {
      // Upgrade: we hold the line Shared; invalidate every other holder.
      count(core, RawEvent::kL2Hit, 1);
      count(core, RawEvent::kL2RfoHitS, 1);
      count(core, RawEvent::kRfoUpgrades, 1);
      count(core, RawEvent::kTransSM, 1);
      bool remote_sharer = false;
      // Every holder except ourselves gets invalidated, in ascending core
      // order. Snapshot the mask first: snoop_peer mutates the directory
      // entry as peers drop the line.
      SharerMask peers = line_holders(line).sharers;
      sharer_index_.clear(peers, core);
      sharer_index_.for_each(peers, [&](CoreId peer) {
        snoop_peer(peer, line, /*for_ownership=*/true);
        count(core, RawEvent::kInvalidationsSent, 1);
        if (socket_of(peer) != socket_of(core)) remote_sharer = true;
      });
      // The snoops touched only peers and other sockets: both slots still
      // locate this core's copies.
      invalidate_other_l3s(socket_of(core), line);
      node.l2.set_state(l2, MesiState::kModified);
      if (l1.resident()) node.l1.set_state(l1, MesiState::kModified);
      result.level = ServiceLevel::kUpgrade;
      drain_latency = cm.upgrade;
      if (remote_sharer) {
        count(core, RawEvent::kCrossSocketTransfers, 1);
        drain_latency += cm.cross_socket_hop();
      }
    } else {
      count(core, RawEvent::kL2DemandIState, 1);
      count(core, RawEvent::kL2Miss, 1);
      count(core, RawEvent::kL2StMiss, 1);
      count(core, RawEvent::kOffcoreRfo, 1);
      const LineResult lr = service_request(core, line, /*want_ownership=*/true,
                                            now + result.latency);
      fill_private(core, line, MesiState::kModified);
      result.level = lr.level;
      drain_latency = cm.latency_for(lr.level) + lr.extra_latency;
      fill_lfb = true;
      // The streamer also covers RFO streams (streaming writes), so linear
      // output stores do not pay the full miss chain per line.
      maybe_stream_prefetch(core, line, now, /*allocate=*/true);
    }
  }

  // Store-buffer timing: stall only if the queue is full.
  node.store_buffer.retire_completed(now);
  const Cycles stall = node.store_buffer.stall_until_slot(now);
  if (stall > 0) {
    count(core, RawEvent::kStoreBufferStallCycles, stall);
    node.store_buffer.retire_completed(now + stall);
  }
  const Cycles completion = node.store_buffer.push(now + stall, drain_latency);
  if (fill_lfb) node.lfb.insert(line, completion, now);
  result.latency += cm.store_commit + stall;
  return result;
}

void MemorySystem::maybe_stream_prefetch(CoreId core, Addr line, Cycles now,
                                         bool allocate) {
  CoreNode& node = nodes_[core];
  const Addr line_bytes = config_.l1d.line_bytes;

  // A demand access continues a stream if it falls just behind (or at) the
  // stream's prefetch frontier.
  Addr* frontier = nullptr;
  for (Addr& next : node.stream_table) {
    if (next == 0) continue;
    if (line + line_bytes >= next - kPrefetchAhead * line_bytes &&
        line < next + line_bytes) {
      frontier = &next;
      break;
    }
  }
  if (frontier == nullptr) {
    if (allocate) {
      node.stream_table[node.stream_rr] = line + line_bytes;
      node.stream_rr = (node.stream_rr + 1) % node.stream_table.size();
    }
    return;
  }

  // Hysteresis: refill only when the demand stream has consumed most of the
  // window, then issue a whole burst. The target list is a fixed inline
  // buffer — the burst is bounded, so a per-burst heap allocation here was
  // pure hot-path overhead.
  if (*frontier > line + (kPrefetchAhead - kPrefetchBurst) * line_bytes)
    return;
  std::array<Addr, 2 * kPrefetchBurst> targets;
  std::size_t num_targets = 0;
  while (*frontier <= line + kPrefetchAhead * line_bytes &&
         num_targets < targets.size()) {
    targets[num_targets++] = *frontier;
    *frontier += line_bytes;
  }
  for (std::size_t t = 0; t < num_targets; ++t) {
    const Addr target = targets[t];
    if (node.l2.contains(target)) continue;
    // Never disturb a line another core owns (M/E) — the prefetcher queues
    // behind the coherence protocol on real parts too. One directory
    // lookup answers both probes: owned elsewhere and shared elsewhere.
    const LineHolders holders = line_holders(target);
    const bool owned_elsewhere =
        holders.owner != CoherenceDirectory::kNoOwner && holders.owner != core;
    SharerMask s_mask = holders.sharers;
    sharer_index_.clear(s_mask, core);
    if (holders.owner != CoherenceDirectory::kNoOwner)
      sharer_index_.clear(s_mask, holders.owner);
    const bool shared_elsewhere = s_mask.any();
    if (owned_elsewhere) continue;
    if (l3s_[socket_of(core)].touch(target).resident()) {
      count(core, RawEvent::kHwPrefetchesIssued, 1);
    } else {
      // Prefetches are the lowest-priority memory traffic: a saturated
      // channel refuses them (kPrefetchDropped) rather than queueing them —
      // otherwise the backlog they create would silently defer onto later
      // demand misses.
      if (dram_queue_delay(now, target, /*demand=*/false) ==
          kPrefetchDropped)
        continue;
      count(core, RawEvent::kHwPrefetchesIssued, 1);
      count(core, RawEvent::kDramReads, 1);
      count(core,
            dram_home_socket(target) == socket_of(core)
                ? RawEvent::kDramReadsLocal
                : RawEvent::kDramReadsRemote,
            1);
      fill_l3(socket_of(core), target, MesiState::kExclusive);
    }
    count(core, RawEvent::kPrefetchFillsL2, 1);
    fill_private(core, target,
                 shared_elsewhere ? MesiState::kShared : MesiState::kExclusive,
                 /*also_l1=*/false);
    // A prefetch fill is "in flight" briefly; demand loads arriving before
    // it lands merge with it (HIT_LFB).
    node.lfb.insert(target, now + config_.cycles.l2_hit, now);
  }
}

Cycles MemorySystem::dram_queue_delay(Cycles now, Addr line, bool demand) {
  const Addr row = line / config_.cycles.dram_row_bytes;
  // The line's home socket owns the servicing controller: NUMA machines
  // split their DRAM bandwidth across one controller per socket.
  DramController& ctl = dram_[dram_home_socket(line)];
  // Banks interleave at 512-byte granularity: a prefetch burst (8
  // consecutive lines) lands on one bank as a single row activation plus
  // row hits, successive bursts rotate banks, and no stream can monopolize
  // a bank for a whole 4 KiB row. This matches real controllers' channel/
  // bank interleave functions sitting between line and row granularity.
  constexpr Addr kBankInterleaveBytes = 512;
  const std::size_t bank_index =
      (line / kBankInterleaveBytes) % ctl.banks.size();

  const auto occupy = [&](DramBank& bank, Cycles& bus_free) -> Cycles {
    const bool row_hit = bank.open_row == row;
    bank.open_row = row;
    const Cycles bank_busy =
        row_hit ? config_.cycles.dram_bus_occupancy
                : config_.cycles.dram_row_miss_occupancy;
    const Cycles start = std::max({now, bank.free_at, bus_free});
    bank.free_at = start + bank_busy;
    bus_free = start + config_.cycles.dram_bus_occupancy;
    return start - now;
  };

  if (!demand) {
    // Prefetch admission: accept only while the channel's run-ahead is
    // bounded; a saturated channel sheds prefetches one by one (duty-cycled
    // prefetching) instead of building an unbounded backlog, and resumes as
    // soon as the queue drains.
    DramBank& bank = ctl.banks[bank_index];
    const Cycles start = std::max({now, bank.free_at, ctl.bus_free});
    if (start - now > kPrefetchAdmissionWindow) return kPrefetchDropped;
    return occupy(bank, ctl.bus_free);
  }
  // Demand traffic has its own service domain (FR-FCFS reserves service
  // share for demand; a prefetch backlog can never delay it).
  return occupy(ctl.demand_banks[bank_index], ctl.demand_bus_free);
}

MemorySystem::LineResult MemorySystem::service_request(CoreId core, Addr line,
                                                       bool want_ownership,
                                                       Cycles now) {
  FSML_DCHECK(nodes_[core].l2.state_of(line) == MesiState::kInvalid);
  const std::uint32_t my_socket = socket_of(core);

  // The (unique) M/E owner and the S sharers across every socket, from one
  // O(1) directory lookup. The requester holds nothing here, so its bit
  // cannot be set.
  const LineHolders holders = line_holders(line);
  const CoreId owner = holders.owner;
  const MesiState owner_state = holders.owner_state;
  FSML_DCHECK(!sharer_index_.test(holders.sharers, core));
  SharerMask sharer_mask = holders.sharers;
  if (owner != CoherenceDirectory::kNoOwner)
    sharer_index_.clear(sharer_mask, owner);

  // Cross-socket transfers pay the QPI wire hop plus the home agent's
  // directory lookup (cross_socket_hop()).
  const auto qpi_extra = [&](std::uint32_t other_socket) -> Cycles {
    if (other_socket == my_socket) return 0;
    count(core, RawEvent::kCrossSocketTransfers, 1);
    return config_.cycles.cross_socket_hop();
  };

  if (owner_state == MesiState::kModified) {
    const std::uint32_t owner_socket = socket_of(owner);
    snoop_peer(owner, line, want_ownership);
    // The transfer refreshes the dirty copy in the owner's socket L3 and
    // installs the line in ours.
    writeback_to_l3(owner_socket, line);
    if (want_ownership) {
      invalidate_other_l3s(my_socket, line);
      writeback_to_l3(my_socket, line);
      count(core, RawEvent::kInvalidationsSent, 1);
    } else if (owner_socket != my_socket) {
      fill_l3(my_socket, line, MesiState::kShared);
    }
    count(core, RawEvent::kHitmTransfersIn, 1);
    count(core,
          owner_socket == my_socket ? RawEvent::kHitmTransfersLocal
                                    : RawEvent::kHitmTransfersRemote,
          1);
    return {ServiceLevel::kPeerHitM,
            want_ownership ? MesiState::kModified : MesiState::kShared,
            qpi_extra(owner_socket)};
  }
  if (owner_state == MesiState::kExclusive) {
    const std::uint32_t owner_socket = socket_of(owner);
    snoop_peer(owner, line, want_ownership);
    if (want_ownership) {
      invalidate_other_l3s(my_socket, line);
      fill_l3(my_socket, line, MesiState::kExclusive);
      count(core, RawEvent::kInvalidationsSent, 1);
    } else if (owner_socket != my_socket) {
      fill_l3(my_socket, line, MesiState::kShared);
    }
    count(core, RawEvent::kCleanTransfersIn, 1);
    return {ServiceLevel::kPeerHit,
            want_ownership ? MesiState::kModified : MesiState::kShared,
            qpi_extra(owner_socket)};
  }

  // No private owner. Serve from the nearest L3 holding the line. Nothing
  // below changes this socket's L3 before the final fill, so one lookup
  // answers for the whole request.
  const bool local_l3_hit = l3s_[my_socket].touch(line).resident();
  std::uint32_t home_socket = my_socket;
  if (!local_l3_hit) {
    bool found = false;
    for (std::uint32_t sock = 0; sock < l3s_.size(); ++sock) {
      if (sock == my_socket) continue;
      if (l3s_[sock].contains(line)) {
        home_socket = sock;
        found = true;
        break;
      }
    }
    if (!found) {
      // Not cached anywhere: fetch from the line's home memory controller
      // into our socket's L3. A remote home adds the interconnect hop and
      // the remote-read penalty on top of the (home-side) queueing delay.
      const std::uint32_t dram_home = dram_home_socket(line);
      count(core, RawEvent::kL3Miss, 1);
      count(core, RawEvent::kDramReads, 1);
      count(core,
            dram_home == my_socket ? RawEvent::kDramReadsLocal
                                   : RawEvent::kDramReadsRemote,
            1);
      fill_l3(my_socket, line, MesiState::kExclusive);
      Cycles extra = dram_queue_delay(now, line);
      if (dram_home != my_socket) {
        count(core, RawEvent::kCrossSocketTransfers, 1);
        extra +=
            config_.cycles.cross_socket_hop() + config_.cycles.dram_remote_extra;
      }
      return {ServiceLevel::kDram,
              want_ownership ? MesiState::kModified : MesiState::kExclusive,
              extra};
    }
    count(core, RawEvent::kRemoteL3Hits, 1);
  }
  count(core, RawEvent::kL3Hit, 1);

  if (want_ownership) {
    sharer_index_.for_each(sharer_mask, [&](CoreId peer) {
      snoop_peer(peer, line, /*for_ownership=*/true);
      count(core, RawEvent::kInvalidationsSent, 1);
    });
    invalidate_other_l3s(my_socket, line);
    if (!local_l3_hit) fill_l3(my_socket, line, MesiState::kExclusive);
    return {ServiceLevel::kL3, MesiState::kModified,
            qpi_extra(home_socket)};
  }
  if (!local_l3_hit) fill_l3(my_socket, line, MesiState::kShared);
  return {ServiceLevel::kL3,
          sharer_mask.none() ? MesiState::kExclusive : MesiState::kShared,
          qpi_extra(home_socket)};
}

#ifndef NDEBUG
MemorySystem::LineHolders MemorySystem::scan_line_holders(Addr line) const {
  LineHolders h;
  for (CoreId peer = 0; peer < nodes_.size(); ++peer) {
    const MesiState s = nodes_[peer].l2.state_of(line);
    if (s == MesiState::kInvalid) continue;
    sharer_index_.set(h.sharers, peer);
    if (s == MesiState::kModified || s == MesiState::kExclusive) {
      FSML_DCHECK(h.owner == CoherenceDirectory::kNoOwner);
      h.owner = peer;
      h.owner_state = s;
    }
  }
  return h;
}
#endif

MemorySystem::LineHolders MemorySystem::line_holders(Addr line) const {
  LineHolders h;
  if (const CoherenceDirectory::Entry* e = dir_.lookup(line)) {
    h.owner = e->owner;
    h.owner_state = e->owner_state;
    h.sharers = e->sharers;
  }
#ifndef NDEBUG
  // Exact-sync cross-validation: the directory must answer precisely what
  // the full peer scan would have.
  const LineHolders ref = scan_line_holders(line);
  FSML_DCHECK(h.owner == ref.owner && h.owner_state == ref.owner_state &&
              h.sharers == ref.sharers);
#endif
  return h;
}

MesiState MemorySystem::snoop_peer(CoreId peer, Addr line,
                                   bool for_ownership) {
  CoreNode& node = nodes_[peer];
  const Cache::Slot l2 = node.l2.find(line);
  const MesiState s = node.l2.state(l2);
  if (s == MesiState::kInvalid) return s;
  count(peer, RawEvent::kSnoopRequestsReceived, 1);
  switch (s) {
    case MesiState::kModified:
      count(peer, RawEvent::kSnoopResponseHitM, 1);
      count(peer, for_ownership ? RawEvent::kTransMI : RawEvent::kTransMS, 1);
      break;
    case MesiState::kExclusive:
      count(peer, RawEvent::kSnoopResponseHitE, 1);
      count(peer, for_ownership ? RawEvent::kTransEI : RawEvent::kTransES, 1);
      break;
    case MesiState::kShared:
      count(peer, RawEvent::kSnoopResponseHit, 1);
      FSML_DCHECK(for_ownership);  // read requests never snoop S holders
      count(peer, RawEvent::kTransSI, 1);
      break;
    case MesiState::kInvalid:
      break;
  }
  if (for_ownership) {
    count(peer, RawEvent::kInvalidationsReceived, 1);
    node.l1.invalidate(line);
    node.l2.invalidate(l2);
  } else {
    const Cache::Slot l1 = node.l1.find(line);
    if (l1.resident()) node.l1.set_state(l1, MesiState::kShared);
    node.l2.set_state(l2, MesiState::kShared);
  }
  return s;
}

void MemorySystem::record_fill_transition(CoreId core, MesiState state) {
  switch (state) {
    case MesiState::kShared:
      count(core, RawEvent::kTransIS, 1);
      break;
    case MesiState::kExclusive:
      count(core, RawEvent::kTransIE, 1);
      break;
    case MesiState::kModified:
      count(core, RawEvent::kTransIM, 1);
      break;
    case MesiState::kInvalid:
      break;
  }
}

void MemorySystem::fill_private(CoreId core, Addr line, MesiState state,
                                bool also_l1) {
  CoreNode& node = nodes_[core];
  FSML_DCHECK(!node.l2.contains(line));
  count(core, RawEvent::kL2Fill, 1);
  record_fill_transition(core, state);
  switch (state) {
    case MesiState::kShared:
      count(core, RawEvent::kL2LinesInS, 1);
      break;
    case MesiState::kExclusive:
      count(core, RawEvent::kL2LinesInE, 1);
      break;
    case MesiState::kModified:
      count(core, RawEvent::kL2LinesInM, 1);
      break;
    case MesiState::kInvalid:
      break;
  }
  const auto evicted = node.l2.fill(line, state);
  if (evicted) {
    // Inclusion: the victim leaves L1 too; its dirtiness travels along.
    const MesiState l1_victim = node.l1.invalidate(evicted->line_addr);
    const bool dirty = evicted->state == MesiState::kModified ||
                       l1_victim == MesiState::kModified;
    if (dirty) {
      count(core, RawEvent::kL2LinesOutDemandDirty, 1);
      writeback_to_l3(socket_of(core), evicted->line_addr);
    } else {
      count(core, RawEvent::kL2LinesOutDemandClean, 1);
    }
  }
  if (also_l1) fill_l1(core, line, state);
}

void MemorySystem::fill_l1(CoreId core, Addr line, MesiState state) {
  CoreNode& node = nodes_[core];
  FSML_DCHECK(!node.l1.contains(line) && node.l2.state_of(line) == state);
  count(core, RawEvent::kL1dReplacement, 1);
  const auto evicted = node.l1.fill(line, state);
  if (evicted) {
    if (evicted->state == MesiState::kModified) {
      count(core, RawEvent::kL1dEvictDirty, 1);
      // Writeback into L2; inclusion guarantees the line is resident there.
      node.l2.set_state(evicted->line_addr, MesiState::kModified);
    } else {
      count(core, RawEvent::kL1dEvictClean, 1);
    }
  }
}

void MemorySystem::fill_l3(std::uint32_t socket, Addr line, MesiState state) {
  const auto evicted = l3s_[socket].fill(line, state);
  if (!evicted) return;
  // Inclusion: back-invalidate the victim in this socket's cores; a
  // Modified private copy (or a dirty L3 copy) must reach memory.
  bool dirty = evicted->state == MesiState::kModified;
  for (CoreId peer = 0; peer < nodes_.size(); ++peer) {
    if (socket_of(peer) != socket) continue;
    CoreNode& node = nodes_[peer];
    const Cache::Slot l2 = node.l2.find(evicted->line_addr);
    const MesiState s = node.l2.state(l2);
    if (s == MesiState::kInvalid) continue;
    if (s == MesiState::kModified) dirty = true;
    const MesiState l1s = node.l1.invalidate(evicted->line_addr);
    if (l1s == MesiState::kModified) dirty = true;
    node.l2.invalidate(l2);
    count(peer, RawEvent::kInvalidationsReceived, 1);
    switch (s) {
      case MesiState::kModified:
        count(peer, RawEvent::kTransMI, 1);
        break;
      case MesiState::kExclusive:
        count(peer, RawEvent::kTransEI, 1);
        break;
      case MesiState::kShared:
        count(peer, RawEvent::kTransSI, 1);
        break;
      case MesiState::kInvalid:
        break;
    }
  }
  if (dirty && counting_) {
    // Attribute the memory write to the machine, not a specific core: use
    // core 0's bank (the aggregate view is what the PMU layer reads).
    nodes_[0].counters.add(RawEvent::kDramWrites, 1);
  }
}

void MemorySystem::writeback_to_l3(std::uint32_t socket, Addr line) {
  const Cache::Slot l3 = l3s_[socket].find(line);
  if (l3.resident()) {
    l3s_[socket].set_state(l3, MesiState::kModified);
  } else {
    fill_l3(socket, line, MesiState::kModified);
  }
}

void MemorySystem::invalidate_other_l3s(std::uint32_t keep_socket,
                                        Addr line) {
  for (std::uint32_t sock = 0; sock < l3s_.size(); ++sock)
    if (sock != keep_socket) l3s_[sock].invalidate(line);
}

bool MemorySystem::check_coherence_invariant() const {
  // The directory mirrors every L2 exactly (proven against a full scan
  // first), so the cross-core single-writer check is one pass over its
  // entries — no per-line multimap needed.
  if (!check_directory_invariant()) return false;
  bool ok = true;
  dir_.for_each([&](const CoherenceDirectory::Entry& e) {
    if (e.owner == CoherenceDirectory::kNoOwner) return;
    SharerMask others = e.sharers;
    sharer_index_.clear(others, e.owner);
    if (others.any()) ok = false;
  });
  if (!ok) return false;
  for (const CoreNode& node : nodes_) {
    // L1 state must agree with the same core's L2 (or be absent).
    node.l1.for_each_line([&](Addr line, MesiState s) {
      if (node.l2.state_of(line) != s) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

bool MemorySystem::check_directory_invariant() const {
  bool ok = true;
  // Every resident L2 line must be tracked with exactly the right record...
  std::size_t resident = 0;
  for (CoreId core = 0; core < nodes_.size(); ++core) {
    nodes_[core].l2.for_each_line([&](Addr line, MesiState s) {
      ++resident;
      const CoherenceDirectory::Entry* e = dir_.lookup(line);
      if (e == nullptr || !sharer_index_.test(e->sharers, core)) {
        ok = false;
        return;
      }
      const bool exclusive_like =
          s == MesiState::kModified || s == MesiState::kExclusive;
      if (exclusive_like && (e->owner != core || e->owner_state != s))
        ok = false;
      if (!exclusive_like && e->owner == core) ok = false;
    });
  }
  if (!ok) return false;
  // ...and the directory must track nothing else: the (core, line) pairs it
  // holds are exactly the resident ones, every entry is non-empty, and a
  // recorded owner is always among its entry's sharers.
  std::size_t tracked = 0;
  std::size_t entries = 0;
  dir_.for_each([&](const CoherenceDirectory::Entry& e) {
    ++entries;
    tracked += static_cast<std::size_t>(e.sharers.count());
    if (e.sharers.none()) ok = false;
    if (e.owner != CoherenceDirectory::kNoOwner &&
        !sharer_index_.test(e.sharers, e.owner))
      ok = false;
  });
  return ok && tracked == resident && entries == dir_.size();
}

bool MemorySystem::check_inclusion() const {
  for (CoreId core = 0; core < nodes_.size(); ++core) {
    const CoreNode& node = nodes_[core];
    const Cache& socket_l3 = l3s_[socket_of(core)];
    bool ok = true;
    node.l1.for_each_line([&](Addr line, MesiState) {
      if (!node.l2.contains(line)) ok = false;
    });
    node.l2.for_each_line([&](Addr line, MesiState) {
      if (!socket_l3.contains(line)) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

}  // namespace fsml::sim
