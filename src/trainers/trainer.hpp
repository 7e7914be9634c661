// Mini-programs for training the classifier (paper Section 2.2).
//
// Two suites:
//  * multi-threaded (psums, padding, false1, psumv, pdot, count, pmatmult,
//    pmatcompare) — each thread repeatedly writes its own variable; false
//    sharing is switched on purely by data layout (packed vs line-aligned
//    per-thread slots). The vector/matrix programs additionally support a
//    "bad-ma" mode with strided/random element access.
//  * sequential (seq_read, seq_write, seq_rmw, seq_matmul) — exercise the
//    memory system alone; good (linear) vs bad-ma (random/strided) modes.
//
// A mini-program is a *builder*: given a Machine and parameters it allocates
// simulated data and spawns kernels. run_trainer() wraps the full
// build-run-snapshot cycle.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/machine.hpp"
#include "pmu/counters.hpp"
#include "sim/machine_config.hpp"
#include "util/deadline.hpp"

namespace fsml::trainers {

/// The paper's three operation modes (Section 2.1).
enum class Mode : std::uint8_t {
  kGood,   ///< no false sharing, no bad memory access
  kBadFs,  ///< false sharing
  kBadMa,  ///< inefficient memory access
};

std::string_view to_string(Mode mode);
Mode mode_from_string(std::string_view s);

/// Element traversal orders used by bad-ma variants.
enum class AccessPattern : std::uint8_t {
  kLinear,
  kStrided,
  kRandom,
};

std::string_view to_string(AccessPattern p);

struct TrainerParams {
  Mode mode = Mode::kGood;
  std::uint32_t threads = 4;      ///< 1 for the sequential suite
  std::uint64_t size = 0;         ///< program-specific; 0 = program default
  AccessPattern pattern = AccessPattern::kStrided;  ///< used in bad-ma mode
  std::uint64_t seed = 1;
  /// Thread-to-socket pinning on multi-socket machines: packed fills socket
  /// 0 first (default, matches single-socket behavior), scatter round-robins
  /// threads across sockets so per-thread data contends over QPI.
  exec::ThreadPlacement placement = exec::ThreadPlacement::kPacked;
  /// Wall-clock deadline of the run, passed to Machine::set_deadline(): a
  /// run still going at this time throws util::DeadlineExceeded.
  std::chrono::steady_clock::time_point deadline = util::kNoDeadline;
};

class MiniProgram {
 public:
  virtual ~MiniProgram() = default;

  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  virtual bool multithreaded() const = 0;
  /// Scalar programs have no inefficient-memory-access variant.
  virtual bool supports_bad_ma() const = 0;
  /// Problem sizes used by the training harness for this program.
  virtual std::vector<std::uint64_t> default_sizes() const = 0;
  /// Allocates simulated data and spawns the kernels on `machine`.
  virtual void build(exec::Machine& machine,
                     const TrainerParams& params) const = 0;
};

/// The multi-threaded suite, in paper order.
const std::vector<const MiniProgram*>& multithreaded_set();
/// The sequential suite.
const std::vector<const MiniProgram*>& sequential_set();
/// Both suites concatenated.
std::vector<const MiniProgram*> all_programs();
/// Lookup by name; throws if unknown.
const MiniProgram& find_program(std::string_view name);

/// One complete instrumented run of a mini-program.
struct TrainerRun {
  exec::RunResult result;
  pmu::CounterSnapshot snapshot;
  pmu::FeatureVector features;
  sim::RawCounters raw;  ///< aggregate raw counters (for event selection)
};

/// Builds a machine (one core per thread) on `base_config`, runs the
/// program, and reads the PMU.
TrainerRun run_trainer(const MiniProgram& program, const TrainerParams& params,
                       const sim::MachineConfig& base_config);

// ---- shared kernel-building helpers ---------------------------------------

/// Allocates `n` per-thread 8-byte slots: packed on as few cache lines as
/// possible (false sharing) or one line each (padded).
std::vector<sim::Addr> make_slots(exec::VirtualArena& arena, std::uint32_t n,
                                  bool padded);

/// Bijective traversal of [0, n): maps iteration -> element index for the
/// requested pattern without materializing a permutation. kRandom uses a
/// multiplicative bijection (a large odd multiplier coprime to n), kStrided
/// a kStride-element stride adjusted to be coprime to n; both visit every
/// index exactly once per pass.
class Traversal {
 public:
  Traversal(AccessPattern pattern, std::uint64_t n, std::uint64_t seed);

  std::uint64_t size() const { return n_; }
  std::uint64_t index(std::uint64_t i) const;

 private:
  static constexpr std::uint64_t kStride = 16;  ///< elements, for kStrided

  std::uint64_t n_;
  std::uint64_t step_;
  std::uint64_t offset_;
};

}  // namespace fsml::trainers
