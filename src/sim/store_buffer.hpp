// Timing-only models of the store buffer and the line-fill buffers.
//
// Stores retire into a fixed-capacity drain queue and complete in the
// background; the core only stalls when the queue is full. This is the
// mechanism that makes false sharing expensive on real hardware: each store
// to a contended line drains at cross-core RFO latency, the queue fills, and
// the core back-pressures (RESOURCE_STALLS.STORE).
//
// The line-fill buffer tracks lines with fills still in flight; a load that
// misses L1 but matches an in-flight fill merges with it instead of issuing
// a new request (MEM_LOAD_RETIRED.HIT_LFB).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hpp"
#include "util/check.hpp"

namespace fsml::sim {

/// Fixed-capacity queue of background-drain completion times with `ports`
/// parallel drain engines: up to `ports` store misses proceed through the
/// memory system concurrently (they occupy distinct line-fill buffers on
/// real parts), so one slow coherence transfer does not serialize the
/// cheap L1-hit drains behind it. The core stalls only when `capacity`
/// stores are outstanding. Storage is reserved at construction; the access
/// path never allocates.
class DrainQueue {
 public:
  explicit DrainQueue(std::uint32_t capacity, std::uint32_t ports = 4)
      : capacity_(capacity), ports_(std::min(ports, capacity)) {
    FSML_CHECK(capacity >= 1);
    FSML_CHECK(ports >= 1);
    port_free_.assign(ports_, 0);
    q_.reserve(capacity);
  }

  /// Drops entries whose drain completed at or before `now`.
  void retire_completed(Cycles now) {
    q_.erase(q_.begin(), std::upper_bound(q_.begin(), q_.end(), now));
  }

  /// Cycles the core must stall at `now` before a slot is free.
  /// Call retire_completed(now) first.
  Cycles stall_until_slot(Cycles now) const {
    if (q_.size() < capacity_) return 0;
    return q_.front() > now ? q_.front() - now : 0;
  }

  /// Enqueues a drain of `drain_latency` cycles starting when the least
  /// loaded drain port frees up; returns its completion time.
  Cycles push(Cycles now, Cycles drain_latency) {
    FSML_DCHECK(q_.size() < capacity_);
    auto port = std::min_element(port_free_.begin(), port_free_.end());
    const Cycles start = std::max(now, *port);
    const Cycles completion = start + drain_latency;
    *port = completion;
    // Keep outstanding completions sorted so front() is the earliest.
    q_.insert(std::lower_bound(q_.begin(), q_.end(), completion), completion);
    return completion;
  }

  std::size_t size() const { return q_.size(); }
  std::uint32_t capacity() const { return capacity_; }
  bool empty() const { return q_.empty(); }
  Cycles last_completion() const { return q_.empty() ? 0 : q_.back(); }

 private:
  std::uint32_t capacity_;
  std::uint32_t ports_;
  std::vector<Cycles> port_free_;
  std::vector<Cycles> q_;  ///< outstanding completions, ascending
};

/// Small fully-associative buffer of in-flight line fills.
class LineFillBuffer {
 public:
  explicit LineFillBuffer(std::uint32_t capacity) : capacity_(capacity) {
    FSML_CHECK(capacity >= 1);
    entries_.reserve(capacity);
  }

  /// Completion time of an in-flight fill of `line`, if any is pending at
  /// `now` (expired entries are pruned lazily).
  std::optional<Cycles> pending_fill(Addr line, Cycles now) {
    if (const Entry* e = prune_and_find(line, now)) return e->completion;
    return std::nullopt;
  }

  /// Records a fill of `line` completing at `completion`. Oldest entry is
  /// recycled when full (the hardware would stall; the timing difference is
  /// below the granularity this model cares about).
  void insert(Addr line, Cycles completion, Cycles now) {
    if (Entry* e = prune_and_find(line, now)) {
      e->completion = std::max(e->completion, completion);
      return;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back({line, completion});
      return;
    }
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i)
      if (entries_[i].completion < entries_[oldest].completion) oldest = i;
    entries_[oldest] = {line, completion};
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Addr line = 0;
    Cycles completion = 0;
  };

  /// Drops fills completed at or before `now`, keeping the rest in order,
  /// and returns the entry for `line` if one is still in flight: one pass.
  /// Inserts merge by line, so at most one entry matches.
  Entry* prune_and_find(Addr line, Cycles now) {
    Entry* found = nullptr;
    std::size_t live = 0;
    for (const Entry e : entries_) {
      if (e.completion <= now) continue;
      entries_[live] = e;
      if (e.line == line) found = &entries_[live];
      ++live;
    }
    entries_.resize(live);
    return found;
  }

  std::uint32_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace fsml::sim
