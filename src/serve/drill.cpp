#include "serve/drill.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>

#include "pmu/events.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace fsml::serve {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// Virtual steps between the burst boundaries every third client arrives
/// on.
constexpr std::uint64_t kBurstEverySteps = 8;

/// Client patience: retry-afters a client takes on open / on one submit
/// before it gives up.
constexpr std::size_t kOpenRetries = 3;
constexpr std::size_t kSubmitRetries = 8;

double u01(util::SplitMix64& mix) {
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

/// What one drill client intends to do, drawn up-front from the seed.
struct ClientPlan {
  std::size_t template_index = 0;
  std::size_t batches = 1;
  std::uint64_t arrival_step = 0;
  bool malformed = false;
  std::size_t malformed_at = 0;
  int malformed_variant = 0;
  bool cancel = false;
};

struct ClientState {
  std::size_t open_tries = 0;
  std::size_t submit_tries = 0;
};

enum class Kind : std::uint8_t { kOpen, kSubmit, kClose, kCancel };

struct ClientEvent {
  std::uint64_t session = 0;
  Kind kind = Kind::kOpen;
  std::size_t batch = 0;
};

/// Renders one degraded measurement as the wire-format sample batch a
/// client would send: present events only, in Table-2 order.
SampleBatch to_batch(const pmu::DegradedSnapshot& snapshot) {
  SampleBatch batch;
  for (const pmu::EventInfo& info : pmu::westmere_event_table()) {
    const auto slot = static_cast<std::size_t>(info.id);
    if (!snapshot.present[slot]) continue;
    batch.push_back({std::string(info.name),
                     static_cast<double>(snapshot.counts.get(info.id))});
  }
  return batch;
}

/// The four ways a drill client lies: unknown event, NaN count, negative
/// count, duplicate event. Each must quarantine, never crash or misverdict.
void corrupt_batch(SampleBatch& batch, int variant) {
  switch (variant & 3) {
    case 0:
      batch.push_back({"Bogus_Event.NOT_IN_TABLE_2", 1.0});
      break;
    case 1:
      if (batch.empty()) batch.push_back({"Instructions_Retired", 0.0});
      batch.front().count = std::numeric_limits<double>::quiet_NaN();
      break;
    case 2:
      if (batch.empty()) batch.push_back({"Instructions_Retired", 0.0});
      batch.front().count = -7.0;
      break;
    default:
      if (batch.empty()) batch.push_back({"Instructions_Retired", 1.0});
      batch.push_back(batch.front());
      break;
  }
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

void DrillConfig::validate() const {
  if (sessions < 1 || sessions > 100000)
    throw std::runtime_error("DrillConfig: sessions must be 1..100000, got " +
                             std::to_string(sessions));
  if (max_batches_per_session < 1 ||
      max_batches_per_session > kMaxBatchesPerSession)
    throw std::runtime_error(
        "DrillConfig: max_batches_per_session must be 1.." +
        std::to_string(kMaxBatchesPerSession) + ", got " +
        std::to_string(max_batches_per_session));
  if (arrival_spread_steps < 1)
    throw std::runtime_error(
        "DrillConfig: arrival_spread_steps must be >= 1");
  if (service_rate < 1 || service_rate > 100000)
    throw std::runtime_error(
        "DrillConfig: service_rate must be 1..100000, got " +
        std::to_string(service_rate));
  if (!(malformed_rate >= 0.0) || malformed_rate > 1.0 ||
      !(cancel_rate >= 0.0) || cancel_rate > 1.0)
    throw std::runtime_error(
        "DrillConfig: malformed_rate and cancel_rate must be in [0, 1]");
  server.validate();
  noise.validate();
}

std::vector<DrillScenario> drill_battery(std::size_t sessions,
                                         std::uint64_t seed) {
  DrillConfig base;
  base.sessions = sessions;
  base.seed = seed;
  base.server.seed = seed;
  base.server.queue_depth = 24;  // small enough that bursts actually shed
  base.service_rate = 4;

  std::vector<DrillScenario> out;

  out.push_back({"baseline_burst", base});

  DrillScenario stalls{"slow_clients_laggy_dequeue", base};
  stalls.config.faults.seed = seed;
  stalls.config.faults.stall_rate = 0.3;
  stalls.config.faults.stall_steps = 6;
  out.push_back(stalls);

  DrillScenario malformed{"malformed_streams", base};
  malformed.config.malformed_rate = 0.35;
  out.push_back(malformed);

  DrillScenario overflow{"queue_overflow", base};
  overflow.config.faults.seed = seed;
  overflow.config.faults.overflow_rate = 0.4;
  overflow.config.service_rate = 2;
  out.push_back(overflow);

  DrillScenario faults{"classify_throws", base};
  faults.config.faults.seed = seed;
  faults.config.faults.throw_rate = 0.5;
  faults.config.faults.throw_attempts = 3;  // outlasts the 2 retry attempts
  out.push_back(faults);

  DrillScenario cancel{"mid_drill_cancellation", base};
  cancel.config.cancel_rate = 0.3;
  cancel.config.cancel_step = 3;
  out.push_back(cancel);

  DrillScenario everything{"combined_chaos", base};
  everything.config.faults.seed = seed;
  everything.config.faults.stall_rate = 0.2;
  everything.config.faults.stall_steps = 4;
  everything.config.faults.overflow_rate = 0.15;
  everything.config.faults.throw_rate = 0.25;
  everything.config.faults.throw_attempts = 3;
  everything.config.malformed_rate = 0.2;
  everything.config.cancel_rate = 0.15;
  everything.config.cancel_step = 5;
  everything.config.service_rate = 3;
  out.push_back(everything);

  // Classify saturation: 4x the population, deep sessions, a queue and
  // service rate generous enough that nothing sheds — every batch reaches
  // the classify stage, which becomes the only place time can go.
  DrillScenario saturation{"classify_saturation", base};
  saturation.config.sessions = sessions * 4;
  saturation.config.max_batches_per_session = 16;
  saturation.config.arrival_spread_steps = 32;
  saturation.config.service_rate = 32;
  saturation.config.server.queue_depth = 256;
  saturation.config.server.max_sessions = std::max<std::size_t>(
      saturation.config.sessions + 1, 1024);
  saturation.config.server.deadline_steps = 384;
  out.push_back(saturation);

  return out;
}

std::vector<core::EvalRun> drill_templates(std::uint64_t seed,
                                           std::size_t jobs,
                                           std::ostream* log) {
  core::RobustnessConfig config;
  config.reduced = true;
  config.seed = seed;
  config.jobs = jobs;
  return core::simulate_evaluation_runs(config, log);
}

DrillReport run_drill(const core::FalseSharingDetector& detector,
                      const std::vector<core::EvalRun>& templates,
                      const DrillConfig& config, std::ostream* log) {
  config.validate();
  FSML_CHECK_MSG(!templates.empty(), "run_drill needs template runs");
  const auto start = std::chrono::steady_clock::now();

  par::ThreadPool pool(par::pool_workers(config.jobs));
  fault::FaultInjector injector(config.faults);
  Server server(detector, pool, config.server, &injector);

  pmu::NoiseConfig noise = config.noise;
  noise.seed = config.noise.seed ^ (config.seed * kGolden);
  const pmu::MeasurementModel model(noise);

  // Draw every client's plan up-front: pure function of the seed.
  std::vector<ClientPlan> plans(config.sessions);
  for (std::size_t i = 0; i < config.sessions; ++i) {
    util::SplitMix64 mix(config.seed ^ (0xd1211ULL + i * kGolden));
    ClientPlan& plan = plans[i];
    plan.template_index =
        static_cast<std::size_t>(mix.next() % templates.size());
    plan.batches = 1 + static_cast<std::size_t>(
                           mix.next() % config.max_batches_per_session);
    plan.arrival_step =
        (static_cast<std::uint64_t>(i) * config.arrival_spread_steps) /
        config.sessions;
    // Every third client arrives in a thundering herd on a burst boundary.
    if (i % 3 == 0) plan.arrival_step -= plan.arrival_step % kBurstEverySteps;
    plan.malformed = u01(mix) < config.malformed_rate;
    plan.malformed_at = static_cast<std::size_t>(mix.next() % plan.batches);
    plan.malformed_variant = static_cast<int>(mix.next() % 4);
    plan.cancel = u01(mix) < config.cancel_rate;
  }

  auto make_batch = [&](std::size_t i, std::size_t j) {
    const core::EvalRun& run = templates[plans[i].template_index];
    const pmu::DegradedSnapshot snapshot =
        model.measure(run.result.aggregate, run.result.slices,
                      static_cast<std::uint64_t>(i) * 1024 + j);
    SampleBatch batch = to_batch(snapshot);
    if (plans[i].malformed && plans[i].malformed_at == j)
      corrupt_batch(batch, plans[i].malformed_variant);
    return batch;
  };

  // Slow-client chaos: an injected stall widens this client's next gap.
  auto client_gap = [&](std::size_t i, std::size_t j) -> std::uint64_t {
    return 1 + injector.stall_for(
                   "serve.client",
                   std::to_string(i) + ":" + std::to_string(j), 1);
  };

  // The event loop: single-threaded and virtual-step driven, so the whole
  // storm is one deterministic call sequence into the server.
  std::map<std::uint64_t, std::vector<ClientEvent>> schedule;
  for (std::size_t i = 0; i < config.sessions; ++i) {
    schedule[plans[i].arrival_step].push_back(
        {static_cast<std::uint64_t>(i), Kind::kOpen, 0});
    if (plans[i].cancel)
      schedule[plans[i].arrival_step + config.cancel_step].push_back(
          {static_cast<std::uint64_t>(i), Kind::kCancel, 0});
  }

  std::vector<ClientState> clients(config.sessions);
  DrillReport report;
  report.sessions = config.sessions;

  std::uint64_t step = 0;
  std::uint64_t guard = 0;
  while (!schedule.empty()) {
    FSML_CHECK_MSG(++guard < 10000000, "drill event loop failed to converge");
    const auto due = schedule.find(step);
    if (due != schedule.end()) {
      // Index loop: handlers may append same-step events (gap 0 is never
      // scheduled, but retry hints of 0 would land here).
      std::vector<ClientEvent>& events = due->second;
      for (std::size_t e = 0; e < events.size(); ++e) {
        const ClientEvent event = events[e];
        const std::uint64_t id = event.session;
        ClientState& client = clients[static_cast<std::size_t>(id)];
        switch (event.kind) {
          case Kind::kOpen: {
            const AdmitResult r = server.open_session(id, step);
            if (r.admission == Admission::kAdmitted ||
                r.admission == Admission::kDegraded) {
              schedule[step + client_gap(id, 0)].push_back(
                  {id, Kind::kSubmit, 0});
            } else if (r.admission == Admission::kRetryAfter &&
                       client.open_tries < kOpenRetries) {
              ++client.open_tries;
              schedule[step + std::max<std::uint64_t>(
                                  1, r.retry_after_steps)]
                  .push_back({id, Kind::kOpen, 0});
            } else {
              ++report.turned_away;  // client gives up; never admitted
            }
            break;
          }
          case Kind::kSubmit: {
            const SubmitResult r = server.submit(id, make_batch(id, event.batch),
                                                 step);
            if (r.status == Submit::kAccepted ||
                r.status == Submit::kUnusable) {
              client.submit_tries = 0;
              if (event.batch + 1 < plans[id].batches)
                schedule[step + client_gap(id, event.batch + 1)].push_back(
                    {id, Kind::kSubmit, event.batch + 1});
              else
                schedule[step + 1].push_back({id, Kind::kClose, 0});
            } else if (r.status == Submit::kRetryAfter &&
                       client.submit_tries < kSubmitRetries) {
              ++client.submit_tries;
              schedule[step + std::max<std::uint64_t>(
                                  1, r.retry_after_steps)]
                  .push_back({id, Kind::kSubmit, event.batch});
            } else if (r.status == Submit::kRetryAfter) {
              // Out of patience: close with whatever vote accumulated.
              schedule[step + 1].push_back({id, Kind::kClose, 0});
            }
            // kQuarantined / kUnknownSession: terminal — nothing to send.
            break;
          }
          case Kind::kClose:
            server.close_session(id, step);
            break;
          case Kind::kCancel:
            server.cancel_session(id);
            break;
        }
      }
      schedule.erase(due);
    }
    std::vector<SessionRecord> produced =
        server.tick(step, config.service_rate);
    report.records.insert(report.records.end(),
                          std::make_move_iterator(produced.begin()),
                          std::make_move_iterator(produced.end()));
    ++step;
  }
  std::vector<SessionRecord> drained = server.drain(step, config.service_rate);
  report.records.insert(report.records.end(),
                        std::make_move_iterator(drained.begin()),
                        std::make_move_iterator(drained.end()));
  report.steps = step;

  // Score against ground truth and the conservation contract.
  report.health = server.snapshot();
  report.admitted = report.health.admitted;
  const std::uint64_t terminal =
      static_cast<std::uint64_t>(report.records.size());
  report.lost_sessions =
      report.admitted > terminal ? report.admitted - terminal : 0;

  std::vector<std::uint64_t> latencies;
  latencies.reserve(report.records.size());
  std::vector<std::string> lines;
  lines.reserve(report.records.size());
  for (const SessionRecord& record : report.records) {
    latencies.push_back(record.latency_steps());
    lines.push_back(record.to_string());
    const trainers::Mode label =
        templates[plans[static_cast<std::size_t>(record.id)].template_index]
            .label;
    switch (record.outcome) {
      case Outcome::kVerdict:
        ++report.verdicts;
        if (record.verdict.mode == label) ++report.correct;
        if (label == trainers::Mode::kGood &&
            record.verdict.mode != trainers::Mode::kGood)
          ++report.false_positives;
        break;
      case Outcome::kAbstained: ++report.abstained; break;
      case Outcome::kShed: ++report.shed; break;
      case Outcome::kQuarantined: ++report.quarantined; break;
      case Outcome::kExpired: ++report.expired; break;
      case Outcome::kCancelled: ++report.cancelled; break;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  report.latency_p50_steps = percentile(latencies, 0.50);
  report.latency_p99_steps = percentile(latencies, 0.99);
  report.shed_rate =
      report.admitted == 0
          ? 0.0
          : static_cast<double>(report.shed + report.expired) /
                static_cast<double>(report.admitted);

  // Fingerprint: order-insensitive over the terminal records, so it is
  // comparable across any schedule that conserves the same verdict set.
  std::sort(lines.begin(), lines.end());
  util::Crc32 crc;
  for (const std::string& line : lines) {
    crc.update(line.data(), line.size());
    crc.update("\n", 1);
  }
  report.fingerprint = crc.value();

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  report.wall_seconds = elapsed.count();
  report.sessions_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(terminal) / report.wall_seconds
          : 0.0;

  if (log)
    *log << "drill: " << report.summary() << "\n";
  return report;
}

std::string DrillReport::summary() const {
  std::string s = std::to_string(records.size()) + " records (" +
                  std::to_string(verdicts) + " verdicts, " +
                  std::to_string(abstained) + " abstained, " +
                  std::to_string(shed) + " shed, " +
                  std::to_string(quarantined) + " quarantined, " +
                  std::to_string(expired) + " expired, " +
                  std::to_string(cancelled) + " cancelled)";
  s += ", fp=" + std::to_string(false_positives);
  s += ", lost=" + std::to_string(lost_sessions);
  s += ", p99=" + std::to_string(latency_p99_steps) + " steps";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08x", fingerprint);
  s += ", fingerprint=";
  s += buf;
  return s;
}

void DrillReport::write_json(std::ostream& os, const std::string& name,
                             const DrillConfig& config) const {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", fingerprint);
  os << "    {\n";
  os << "      \"scenario\": \"" << name << "\",\n";
  os << "      \"seed\": " << config.seed << ",\n";
  os << "      \"sessions\": " << sessions << ",\n";
  os << "      \"admitted\": " << admitted << ",\n";
  os << "      \"turned_away\": " << turned_away << ",\n";
  os << "      \"lost_sessions\": " << lost_sessions << ",\n";
  os << "      \"verdicts\": " << verdicts << ",\n";
  os << "      \"correct\": " << correct << ",\n";
  os << "      \"false_positives\": " << false_positives << ",\n";
  os << "      \"abstained\": " << abstained << ",\n";
  os << "      \"shed\": " << shed << ",\n";
  os << "      \"quarantined\": " << quarantined << ",\n";
  os << "      \"expired\": " << expired << ",\n";
  os << "      \"cancelled\": " << cancelled << ",\n";
  os << "      \"steps\": " << steps << ",\n";
  os << "      \"latency_p50_steps\": " << latency_p50_steps << ",\n";
  os << "      \"latency_p99_steps\": " << latency_p99_steps << ",\n";
  os << "      \"shed_rate\": " << shed_rate << ",\n";
  os << "      \"retry_afters\": " << health.retry_afters << ",\n";
  os << "      \"classify_faults\": " << health.classify_faults << ",\n";
  os << "      \"breaker_trips\": " << health.breaker_trips << ",\n";
  os << "      \"fingerprint\": \"" << hex << "\",\n";
  os << "      \"classify_calls\": " << health.classify_calls << ",\n";
  os << "      \"classify_p50_us\": " << health.classify_p50_us << ",\n";
  os << "      \"classify_p99_us\": " << health.classify_p99_us << ",\n";
  os << "      \"wall_seconds\": " << wall_seconds << ",\n";
  os << "      \"sessions_per_second\": " << sessions_per_second;
  os << "\n    }";
}

}  // namespace fsml::serve
