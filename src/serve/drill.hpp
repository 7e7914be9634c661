// Deterministic chaos drills for serve::Server.
//
// A drill is a *seeded* storm: a single-threaded virtual-step event loop
// plays a population of client sessions against one Server — bursty
// arrivals, slow clients, malformed streams, injected dequeue stalls,
// queue overflows, classify throws, and mid-drill cancellations, all drawn
// from (DrillConfig::seed, FaultPlan). Because the Server's decisions are
// pure functions of (config, fault plan, call sequence) and its classify
// fan-out is order-preserving, the drill's full verdict set is bit-exactly
// reproducible for any --jobs value; bench/serve_drill asserts that by
// comparing CRC-32 fingerprints of the sorted terminal records.
//
// Session payloads are honest: each session samples one ground-truth
// labelled evaluation run (core::simulate_evaluation_runs) and streams
// per-batch measurements of it through pmu::MeasurementModel, so the drill
// also scores correctness — in particular the zero-false-positive bar,
// which must survive every storm: no session whose ground truth is `good`
// may ever receive a known bad verdict, no matter what the drill throws at
// the server.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/robustness.hpp"
#include "fault/fault.hpp"
#include "pmu/noise.hpp"
#include "serve/server.hpp"

namespace fsml::serve {

/// Schema tag of the JSON document that wraps DrillReport::write_json
/// objects (bench/serve_drill's BENCH_serve.json, `fsml_analyze serve
/// --out`).
inline constexpr const char* kBenchServeSchema = "fsml-bench-serve-v3";

struct DrillConfig {
  /// Client population.
  std::size_t sessions = 48;
  /// Batches per session are drawn uniformly from 1..max_batches_per_session
  /// (at most kMaxBatchesPerSession).
  std::size_t max_batches_per_session = 5;
  /// Session arrivals spread over this many virtual steps, except every
  /// third session, which snaps down to the nearest 8-step burst boundary.
  std::uint64_t arrival_spread_steps = 64;
  /// Batches the server processes per tick.
  std::size_t service_rate = 4;
  /// Probability a session's stream contains one malformed batch.
  double malformed_rate = 0.0;
  /// Probability a session is cancelled mid-flight; the cancel lands
  /// `cancel_step` virtual steps after the session's arrival.
  double cancel_rate = 0.0;
  std::uint64_t cancel_step = 4;

  std::uint64_t seed = 42;
  std::size_t jobs = 0;  ///< host threads; 0 = hardware concurrency

  ServeConfig server;
  fault::FaultPlan faults;    ///< chaos sites (stalls/overflow/throws)
  pmu::NoiseConfig noise;     ///< per-batch measurement degradation

  /// Throws std::runtime_error on out-of-range values.
  void validate() const;
};

/// Everything a drill produces: the terminal records, their fingerprint,
/// and the robustness scorecard the bench asserts on.
struct DrillReport {
  std::vector<SessionRecord> records;  ///< final-step / id order, as produced
  HealthSnapshot health;               ///< server snapshot after drain

  std::size_t sessions = 0;      ///< clients the drill played
  std::uint64_t admitted = 0;    ///< sessions the server admitted
  std::uint64_t turned_away = 0; ///< clients that gave up on retry-after
  /// Conservation: admitted sessions without a terminal record. The drill
  /// contract is that this is always zero.
  std::uint64_t lost_sessions = 0;

  std::uint64_t verdicts = 0;
  std::uint64_t correct = 0;  ///< verdicts matching ground truth
  /// Good-labelled sessions with a known bad verdict. Must be zero.
  std::uint64_t false_positives = 0;
  std::uint64_t abstained = 0;
  std::uint64_t shed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;

  std::uint64_t steps = 0;  ///< virtual steps the drill ran (incl. drain)
  std::uint64_t latency_p50_steps = 0;
  std::uint64_t latency_p99_steps = 0;
  double shed_rate = 0.0;  ///< (shed + expired) / admitted

  /// CRC-32 over the sorted terminal-record lines — the determinism
  /// fingerprint compared across --jobs values.
  std::uint32_t fingerprint = 0;

  double wall_seconds = 0.0;
  double sessions_per_second = 0.0;

  std::string summary() const;

  /// One JSON object (no schema header — callers wrap scenarios into a
  /// kBenchServeSchema document).
  void write_json(std::ostream& os, const std::string& name,
                  const DrillConfig& config) const;
};

/// One named scenario of the drill battery.
struct DrillScenario {
  std::string name;
  DrillConfig config;
};

/// The battery bench/serve_drill runs, `sessions` clients each (the last
/// scenario plays 4x that). Every scenario shares the population and seed
/// and turns on one storm axis: baseline_burst, slow_clients_laggy_dequeue,
/// malformed_streams, queue_overflow, classify_throws,
/// mid_drill_cancellation; combined_chaos turns them all on at once, and
/// classify_saturation floods the service with well-formed work so the
/// classify stage, not admission or the queue, is the bottleneck.
std::vector<DrillScenario> drill_battery(std::size_t sessions,
                                         std::uint64_t seed);

/// Simulates the ground-truth template runs a drill samples payloads from.
/// Thin wrapper over core::simulate_evaluation_runs (reduced set) so
/// benches can share one template set across scenarios.
std::vector<core::EvalRun> drill_templates(std::uint64_t seed,
                                           std::size_t jobs,
                                           std::ostream* log = nullptr);

/// Runs one seeded drill. The detector must be trained; `templates` must be
/// non-empty. Bit-identical records for any `config.jobs`.
DrillReport run_drill(const core::FalseSharingDetector& detector,
                      const std::vector<core::EvalRun>& templates,
                      const DrillConfig& config, std::ostream* log = nullptr);

}  // namespace fsml::serve
