// Whole-machine configuration: core count, per-level geometries, TLB and
// latency model. Factories model the two systems in the paper.
#pragma once

#include <cstdint>
#include <string>

#include "sim/cycle_model.hpp"
#include "sim/geometry.hpp"
#include "sim/topology.hpp"

namespace fsml::sim {

struct MachineConfig {
  std::string name = "generic";
  std::uint32_t num_cores = 12;
  /// Socket layout. The default ({1, 0}) puts every core on one socket.
  /// Multi-socket machines get one L3 and one memory controller per
  /// socket; cross-socket coherence transfers pay the QPI wire hop plus a
  /// home-agent directory lookup, and remote DRAM costs extra.
  SocketTopology topology;

  CacheGeometry l1d{32 * 1024, 8, 64};
  CacheGeometry l2{256 * 1024, 8, 64};
  CacheGeometry l3{12 * 1024 * 1024, 16, 64};

  std::uint32_t dtlb_entries = 64;
  std::uint32_t dtlb_ways = 4;
  std::uint32_t page_bytes = 4096;

  std::uint32_t store_buffer_entries = 8;
  std::uint32_t lfb_entries = 10;

  CycleModel cycles{};

  double core_hz = 3.4e9;  ///< for cycles -> seconds conversion only

  void validate() const;

  /// The paper's experimental platform: 12-core Xeon X5690 (Westmere DP),
  /// 32 KiB L1D + 256 KiB L2 per core, 12 MiB shared L3, 3.4 GHz.
  /// Modelled as a single socket by default.
  static MachineConfig westmere_dp(std::uint32_t cores = 12);

  /// The same platform with its true topology: 2 sockets x 6 cores, one
  /// 12 MiB L3 per socket, QPI between them. Cross-socket false sharing is
  /// costlier and its HITM transfers ride the interconnect.
  static MachineConfig westmere_dp_2s();

  /// The 32-core Xeon used for the paper's Table 1 motivation experiment.
  /// Modelled as Westmere-class cores with a larger shared LLC.
  static MachineConfig xeon32(std::uint32_t cores = 32);

  /// A wide NUMA machine: `sockets` x `cores_per_socket` Westmere-class
  /// cores, one L3 and one memory controller per socket. This is the
  /// 128/256-core scenario family the paper's single-socket hardware could
  /// never express (up to 4 sockets x 64 cores).
  static MachineConfig numa(std::uint32_t sockets,
                            std::uint32_t cores_per_socket);

  /// Tiny machine for fast unit tests (2 cores, small caches).
  static MachineConfig tiny(std::uint32_t cores = 2);
};

}  // namespace fsml::sim
