#include "trainers/trainer.hpp"

#include <numeric>
#include <stdexcept>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace fsml::trainers {

std::string_view to_string(Mode mode) {
  switch (mode) {
    case Mode::kGood: return "good";
    case Mode::kBadFs: return "bad-fs";
    case Mode::kBadMa: return "bad-ma";
  }
  return "?";
}

Mode mode_from_string(std::string_view s) {
  if (s == "good") return Mode::kGood;
  if (s == "bad-fs" || s == "bad_fs" || s == "badfs") return Mode::kBadFs;
  if (s == "bad-ma" || s == "bad_ma" || s == "badma") return Mode::kBadMa;
  throw std::runtime_error("unknown mode: " + std::string(s));
}

std::string_view to_string(AccessPattern p) {
  switch (p) {
    case AccessPattern::kLinear: return "linear";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kRandom: return "random";
  }
  return "?";
}

// Program factories defined in the per-family translation units.
namespace detail {
std::vector<const MiniProgram*> scalar_programs();
std::vector<const MiniProgram*> vector_programs();
std::vector<const MiniProgram*> matrix_programs();
std::vector<const MiniProgram*> sequential_programs();
}  // namespace detail

const std::vector<const MiniProgram*>& multithreaded_set() {
  static const std::vector<const MiniProgram*> set = [] {
    std::vector<const MiniProgram*> v = detail::scalar_programs();
    const auto vec = detail::vector_programs();
    const auto mat = detail::matrix_programs();
    v.insert(v.end(), vec.begin(), vec.end());
    v.insert(v.end(), mat.begin(), mat.end());
    return v;
  }();
  return set;
}

const std::vector<const MiniProgram*>& sequential_set() {
  static const std::vector<const MiniProgram*> set =
      detail::sequential_programs();
  return set;
}

std::vector<const MiniProgram*> all_programs() {
  std::vector<const MiniProgram*> v = multithreaded_set();
  const auto& seq = sequential_set();
  v.insert(v.end(), seq.begin(), seq.end());
  return v;
}

const MiniProgram& find_program(std::string_view name) {
  for (const MiniProgram* p : all_programs())
    if (p->name() == name) return *p;
  throw std::runtime_error("unknown mini-program: " + std::string(name));
}

TrainerRun run_trainer(const MiniProgram& program, const TrainerParams& params,
                       const sim::MachineConfig& base_config) {
  FSML_CHECK_MSG(params.threads >= 1, "at least one thread required");
  FSML_CHECK_MSG(program.multithreaded() || params.threads == 1,
                 "sequential programs run single-threaded");
  FSML_CHECK_MSG(params.mode != Mode::kBadMa || program.supports_bad_ma(),
                 "program has no bad-ma variant");

  sim::MachineConfig config = base_config;
  if (!config.topology.multi_socket()) {
    // Single-socket base: size the machine to the thread count, exactly as
    // before the NUMA work (the bit-identity contract covers this path).
    config.num_cores = params.threads;
  } else {
    // Multi-socket base: keep the full topology — shrinking it would change
    // which sockets exist — and place threads on its cores per
    // params.placement.
    FSML_CHECK_MSG(params.threads <= config.num_cores,
                   "more threads than the multi-socket machine has cores");
  }
  exec::Machine machine(config, params.seed);
  machine.set_thread_placement(params.placement);
  machine.set_deadline(params.deadline);
  program.build(machine, params);
  FSML_CHECK(machine.num_threads() == params.threads);

  TrainerRun run;
  run.result = machine.run();
  run.raw = run.result.aggregate;
  run.snapshot = pmu::CounterSnapshot::from_raw(run.raw);
  run.features = pmu::FeatureVector::normalize(run.snapshot);
  return run;
}

std::vector<sim::Addr> make_slots(exec::VirtualArena& arena, std::uint32_t n,
                                  bool padded) {
  std::vector<sim::Addr> slots;
  slots.reserve(n);
  if (padded) {
    for (std::uint32_t i = 0; i < n; ++i)
      slots.push_back(arena.alloc_line_aligned(8));
  } else {
    // Contiguous 8-byte slots: 8 threads per 64-byte line.
    const sim::Addr base = arena.alloc_line_aligned(8ULL * n);
    for (std::uint32_t i = 0; i < n; ++i) slots.push_back(base + 8ULL * i);
  }
  return slots;
}

Traversal::Traversal(AccessPattern pattern, std::uint64_t n,
                     std::uint64_t seed)
    : n_(n) {
  FSML_CHECK(n >= 1);
  switch (pattern) {
    case AccessPattern::kLinear:
      step_ = 1;
      offset_ = 0;
      break;
    case AccessPattern::kStrided:
      step_ = kStride;
      offset_ = 0;
      break;
    case AccessPattern::kRandom: {
      // Large odd multiplicative step derived from the seed: hops all over
      // the array, defeating spatial locality, the TLB and next-line
      // prefetching assumptions — a stand-in for a random permutation that
      // needs no O(n) side table.
      util::SplitMix64 sm(seed);
      step_ = (sm.next() | 1) % std::max<std::uint64_t>(n, 2);
      if (step_ < 2) step_ = 2654435761ULL % std::max<std::uint64_t>(n, 2);
      offset_ = sm.next() % n;
      break;
    }
  }
  // Make the step coprime to n so each pass is a bijection on [0, n).
  if (n > 1) {
    step_ %= n;
    if (step_ == 0) step_ = 1;
    while (std::gcd(step_, n_) != 1) ++step_;
  } else {
    step_ = 1;
  }
}

std::uint64_t Traversal::index(std::uint64_t i) const {
  if (n_ == 1) return 0;
  return (offset_ + i * step_) % n_;
}

}  // namespace fsml::trainers
