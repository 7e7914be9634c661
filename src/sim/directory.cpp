#include "sim/directory.hpp"

#include <algorithm>

namespace fsml::sim {

CoherenceDirectory::CoherenceDirectory(const SocketTopology& topo,
                                       std::uint32_t num_cores,
                                       std::uint64_t max_lines)
    : idx_(topo) {
  FSML_CHECK_MSG(num_cores >= 1 && num_cores <= kMaxSimulatedCores,
                 "coherence directory supports 1..256 cores");
  FSML_CHECK_MSG(num_cores <= idx_.span() * kMaxSockets,
                 "core id would overflow the hierarchical sharer mask");
  // Start at 2 * max_lines rounded up to a power of two, clamped to
  // [64, 2048] slots; grow() doubles from there as lines are tracked. The
  // clamp matters: a 32-core machine's worst case is ~256k slots (6 MB to
  // zero per construction), while a typical mini-program run touches a few
  // thousand lines.
  const std::uint64_t capacity = std::clamp<std::uint64_t>(
      std::bit_ceil(2 * std::max<std::uint64_t>(max_lines, 1)), 64, 2048);
  slots_.resize(static_cast<std::size_t>(capacity));
  mask_ = static_cast<std::size_t>(capacity - 1);
  shift_ = static_cast<unsigned>(64 - std::countr_zero(capacity));
}

void CoherenceDirectory::on_line_event(CoreId core, Addr line,
                                       [[maybe_unused]] MesiState from,
                                       MesiState to) {
  FSML_DCHECK(from != to);
  std::size_t slot = find_slot(line);
  if (slots_[slot].sharers.none() && to != MesiState::kInvalid &&
      2 * (size_ + 1) > slots_.size()) {
    grow();
    slot = find_slot(line);
  }
  Entry& e = slots_[slot];

  if (to == MesiState::kInvalid) {
    // Invalidation or eviction: the entry must exist and track this core.
    FSML_DCHECK(idx_.test(e.sharers, core));
    idx_.clear(e.sharers, core);
    if (e.owner == core) {
      e.owner = kNoOwner;
      e.owner_state = MesiState::kInvalid;
    }
    if (e.sharers.none()) {
      --size_;
      erase_slot(slot);
    }
    return;
  }

  if (e.sharers.none()) {
    FSML_DCHECK(2 * (size_ + 1) <= slots_.size());
    e.line = line;
    e.owner = kNoOwner;
    e.owner_state = MesiState::kInvalid;
    ++size_;
  }
  idx_.set(e.sharers, core);
  if (to == MesiState::kModified || to == MesiState::kExclusive) {
    // MESI single-writer: a second owner would mean the protocol let two
    // cores hold the line M/E at once.
    FSML_DCHECK(e.owner == kNoOwner || e.owner == core);
    e.owner = core;
    e.owner_state = to;
  } else if (e.owner == core) {
    e.owner = kNoOwner;  // M/E -> S downgrade
    e.owner_state = MesiState::kInvalid;
  }
}

void CoherenceDirectory::grow() {
  const std::vector<Entry> old = std::move(slots_);
  const std::size_t capacity = 2 * old.size();
  slots_.assign(capacity, Entry{});
  mask_ = capacity - 1;
  shift_ = static_cast<unsigned>(
      64 - std::countr_zero(static_cast<std::uint64_t>(capacity)));
  for (const Entry& e : old)
    if (e.sharers.any()) slots_[find_slot(e.line)] = e;
}

void CoherenceDirectory::erase_slot(std::size_t slot) {
  slots_[slot].sharers.reset();
  std::size_t hole = slot;
  std::size_t i = slot;
  while (true) {
    i = (i + 1) & mask_;
    if (slots_[i].sharers.none()) return;
    const std::size_t home = static_cast<std::size_t>(
        (slots_[i].line * 0x9E3779B97F4A7C15ull) >> shift_);
    // Shift the entry back into the hole unless its home slot lies in the
    // cyclic interval (hole, i] — moving it would then break its probe
    // chain.
    const bool home_in_gap = ((i - home) & mask_) < ((i - hole) & mask_);
    if (!home_in_gap) {
      slots_[hole] = slots_[i];
      slots_[i].sharers.reset();
      hole = i;
    }
  }
}

}  // namespace fsml::sim
