// VirtualArena: bump allocator over the simulated address space.
//
// Kernels lay out their simulated data with this allocator. Whether two
// per-thread variables share a cache line is decided here — exactly the
// data-layout accident that causes false sharing in real programs — so the
// trainers' "good" vs "bad-fs" modes are expressed purely as allocation
// choices (packed vs line-aligned).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace fsml::exec {

/// A named allocation, recorded so analysis tools can attribute cache
/// lines back to data structures (the "which variable is false sharing?"
/// question).
struct Allocation {
  std::string name;
  sim::Addr begin = 0;
  std::uint64_t bytes = 0;
  bool contains(sim::Addr addr) const {
    return addr >= begin && addr < begin + bytes;
  }
};

class VirtualArena {
 public:
  explicit VirtualArena(sim::Addr base = 0x10000, std::uint32_t line_bytes = 64,
                        std::uint32_t page_bytes = 4096);

  /// Allocates `bytes` with the given alignment (power of two).
  sim::Addr alloc(std::uint64_t bytes, std::uint64_t align = 8);

  /// Named variants: same allocation, plus a registry entry that lets the
  /// mitigation advisor name the offending structure.
  sim::Addr alloc_named(const std::string& name, std::uint64_t bytes,
                        std::uint64_t align = 8);
  sim::Addr alloc_line_aligned_named(const std::string& name,
                                     std::uint64_t bytes);

  /// The allocation covering `addr`, if any was named.
  std::optional<Allocation> find_allocation(sim::Addr addr) const;
  const std::vector<Allocation>& allocations() const { return allocations_; }

  /// Allocates starting on a fresh cache line.
  sim::Addr alloc_line_aligned(std::uint64_t bytes);

  /// Allocates starting on a fresh page (forces new DTLB entries).
  sim::Addr alloc_page_aligned(std::uint64_t bytes);

  /// Inserts an unused gap, useful to pad between allocations.
  void skip(std::uint64_t bytes);

  std::uint32_t line_bytes() const { return line_bytes_; }
  std::uint32_t page_bytes() const { return page_bytes_; }

  /// Releases everything (allocation addresses may repeat afterwards).
  void reset();

 private:
  sim::Addr base_;
  sim::Addr next_;
  std::uint32_t line_bytes_;
  std::uint32_t page_bytes_;
  std::vector<Allocation> allocations_;
};

}  // namespace fsml::exec
