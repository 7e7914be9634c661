// fsml_analyze — the command-line front end to the detection pipeline.
//
//   fsml_analyze train    [--cache=training.csv] [--out=fsml.tree]
//   fsml_analyze classify --workload=NAME [--model=fsml.tree]
//                         [--input=SET] [--opt=-O2] [--threads=8]
//                         [--slices=25000] [--ground-truth] [--advise]
//   fsml_analyze sweep    --workload=NAME [--model=fsml.tree]
//   fsml_analyze robustness [--noise=0,0.05,0.2] [--counters=0,4,2]
//                         [--drop=0,0.05] [--repeats=5] [--confidence=0.6]
//                         [--out=robustness.json]
//   fsml_analyze triage   [--anomaly=fsml.anomaly] [--demote-below=0.35]
//                         [--out=triage.json] (+ the robustness options)
//   fsml_analyze list
//   fsml_analyze events
//
// `classify` runs one case of a workload proxy on the simulated machine and
// prints the verdict; with --slices it adds the phase timeline, with
// --ground-truth the shadow-memory rate, with --advise the per-line
// mitigation recommendations. `sweep` classifies every (input, opt,
// threads) case and prints the Table-5-style summary for one program.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>

#include "baseline/shadow_detector.hpp"
#include "core/advisor.hpp"
#include "core/detector.hpp"
#include "core/robustness.hpp"
#include "core/slices.hpp"
#include "core/training.hpp"
#include "core/triage.hpp"
#include "fault/fault.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "pmu/events.hpp"
#include "serve/drill.hpp"
#include "trainers/trainer.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"
#include "workloads/workload.hpp"

using namespace fsml;

namespace {

int usage() {
  std::printf(
      "usage: fsml_analyze <command> [options]\n"
      "\n"
      "commands:\n"
      "  train     collect mini-program training data and fit the J48 model\n"
      "            --cache=FILE (training data cache, default "
      "fsml_training_cache.csv)\n"
      "            --save-model=FILE (model file, default fsml.tree;\n"
      "                          --out is an alias)\n"
      "            --load-model=FILE (load + verify an existing model file\n"
      "                          instead of training; corrupt or mismatched\n"
      "                          files are rejected with exit 1)\n"
      "            --resume     (continue an interrupted collection, or\n"
      "                          one that quarantined cells, from\n"
      "                          CACHE.journal instead of starting over)\n"
      "            --retries=N  (attempts per collection job, default 3)\n"
      "            --reduced    (small grid, ~3 s instead of ~20 s)\n"
      "            --jobs=N     (host threads for collection; default = all\n"
      "                          hardware threads, 1 = serial; any N yields\n"
      "                          bit-identical training data)\n"
      "            --inject-abort-after=N --fault-rate=R --fault-seed=N\n"
      "                         (deterministic fault injection: crash after\n"
      "                          N completed jobs / transient throw rate R;\n"
      "                          used by the CI crash-resume smoke test)\n"
      "            --save-anomaly=FILE (also fit the zero-positive anomaly\n"
      "                          model on the good rows and persist it)\n"
      "  classify  classify one case of a benchmark proxy\n"
      "            --workload=NAME --input=SET --opt=-O2 --threads=8\n"
      "            --model=FILE --load-model=FILE --seed=N\n"
      "            --slices=CYCLES   add a phase timeline\n"
      "            --ground-truth    run the shadow detector too (<=8 "
      "threads)\n"
      "            --advise          print mitigation recommendations\n"
      "  sweep     classify every case of one program (Table-5 style)\n"
      "            --workload=NAME --model=FILE --load-model=FILE --jobs=N\n"
      "  robustness  accuracy-degradation sweep under emulated PMU faults\n"
      "            --noise=L      jitter levels, e.g. 0,0.05,0.2 (each in "
      "[0,1])\n"
      "            --counters=L   programmable-counter counts, e.g. 0,4,2\n"
      "                           (0 = no multiplexing, 4 = Westmere)\n"
      "            --drop=L       event-drop probabilities (each in [0,1])\n"
      "            --repeats=N    measurements per vote (default 5)\n"
      "            --confidence=C abstention threshold (default 0.6)\n"
      "            --seed=N --jobs=N --model=FILE --load-model=FILE "
      "--reduced\n"
      "            --out=FILE     JSON artifact (default robustness.json)\n"
      "  triage    two-stage sweep: stage-1 verdicts re-ranked by the triage\n"
      "            stage (tree confidence + zero-positive anomaly + phase\n"
      "            timeline + run metadata); low-priority alarms demote to\n"
      "            unknown\n"
      "            --anomaly=FILE       zero-positive model (default\n"
      "                                 fsml.anomaly; fitted from reduced\n"
      "                                 training data when missing)\n"
      "            --load-anomaly=FILE  strict load (corrupt file = exit 1)\n"
      "            --demote-below=P     demotion cutoff (default 0.35)\n"
      "            --out=FILE           JSON artifact (default triage.json)\n"
      "            (plus every robustness option above)\n"
      "  serve     run one seeded chaos drill against the streaming\n"
      "            detection service (src/serve) and print its scorecard\n"
      "            --sessions=N      drill clients (default 48, 1..100000)\n"
      "            --queue-depth=N   queue capacity in batches (default 256)\n"
      "            --max-sessions=N  concurrent session cap (default 1024)\n"
      "            --deadline=N      per-session deadline, virtual steps\n"
      "                              (default 96; 0 disables)\n"
      "            --idle-timeout=N  idle expiry, virtual steps (default 24)\n"
      "            --service-rate=N  batches processed per tick (default 4)\n"
      "            --malformed=R --cancel=R     client misbehaviour rates\n"
      "            --stall-rate=R --overflow-rate=R --throw-rate=R\n"
      "                              injected chaos (see src/fault)\n"
      "            --seed=N --jobs=N --model=FILE --load-model=FILE\n"
      "            --out=FILE        JSON artifact (default empty: none)\n"
      "  list      available workloads and mini-programs\n"
      "  events    the modelled Westmere event table (paper Table 2)\n");
  return 2;
}

core::FalseSharingDetector load_or_train(const util::Cli& cli) {
  // --load-model is strict: a missing, corrupt, or schema-mismatched file
  // is a hard error (exit 1 via main's catch), never silently retrained
  // around — the operator asked for *that* model.
  const std::string strict = cli.get("load-model", "");
  if (!strict.empty()) {
    std::fprintf(stderr, "loading model %s\n", strict.c_str());
    return core::FalseSharingDetector::load_file(strict);
  }
  const std::string model_path = cli.get("model", "fsml.tree");
  if (static_cast<bool>(std::ifstream(model_path))) {
    std::fprintf(stderr, "loading model %s\n", model_path.c_str());
    return core::FalseSharingDetector::load_file(model_path);
  }
  std::fprintf(stderr, "no model at %s — training (use `fsml_analyze train` "
                       "to persist one)\n",
               model_path.c_str());
  core::TrainingConfig config = core::TrainingConfig::reduced();
  config.jobs = par::cli_jobs(cli);
  core::FalseSharingDetector detector;
  detector.train(core::collect_training_data(config));
  return detector;
}

int cmd_train(const util::Cli& cli) {
  const std::string verify = cli.get("load-model", "");
  if (!verify.empty()) {
    // Verification mode: prove the artifact loads (magic, version, CRC,
    // feature schema) and show what is inside. No training happens.
    const auto detector = core::FalseSharingDetector::load_file(verify);
    std::printf("model %s is valid\n\n%s", verify.c_str(),
                detector.model().describe().c_str());
    return 0;
  }

  core::TrainingConfig config;
  if (cli.get_bool("reduced", false)) config = core::TrainingConfig::reduced();
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  config.jobs = par::cli_jobs(cli);

  core::CollectOptions options;
  options.resume = cli.get_bool("resume", false);
  options.max_attempts =
      static_cast<int>(cli.get_int_in("retries", 3, 1, 100));

  // Deterministic fault injection (CI crash-resume smoke, failure drills).
  fault::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 0));
  plan.throw_rate = cli.get_double_in("fault-rate", 0.0, 0.0, 1.0);
  plan.abort_after =
      static_cast<std::uint64_t>(cli.get_int("inject-abort-after", 0));
  fault::FaultInjector injector(plan);
  if (plan.any()) options.injector = &injector;

  core::CollectReport report;
  const core::TrainingData data =
      core::collect_or_load(config, cli.get("cache", "fsml_training_cache.csv"),
                            &std::cerr, options, &report);
  core::FalseSharingDetector detector;
  detector.train(data);
  const std::string out = cli.get("save-model", cli.get("out", "fsml.tree"));
  detector.save_file(out);
  const std::string anomaly_out = cli.get("save-anomaly", "");
  if (!anomaly_out.empty()) {
    const ml::ZeroPositiveModel anomaly = core::fit_zero_positive(data);
    anomaly.save_file(anomaly_out);
    std::printf("anomaly model -> %s (%s)\n", anomaly_out.c_str(),
                anomaly.describe().c_str());
  }
  if (!report.quarantined.empty())
    std::fprintf(stderr,
                 "warning: %zu collection cell(s) quarantined; the model was "
                 "trained without them and no cache was written (rerun with "
                 "--resume to collect them)\n",
                 report.quarantined.size());
  std::printf("trained on %zu instances; model -> %s\n\n%s",
              data.instances.size(), out.c_str(),
              detector.model().describe().c_str());
  return 0;
}

int cmd_classify(const util::Cli& cli) {
  const std::string name = cli.get("workload", "");
  if (name.empty()) return usage();
  const auto& w = workloads::find_workload(name);

  workloads::WorkloadCase wcase;
  wcase.input = cli.get("input", w.input_sets()[0]);
  wcase.opt = workloads::opt_from_string(cli.get("opt", "-O2"));
  wcase.threads = static_cast<std::uint32_t>(cli.get_int("threads", 8));
  wcase.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const auto slice = static_cast<sim::Cycles>(cli.get_int("slices", 0));
  const bool ground_truth = cli.get_bool("ground-truth", false);
  const bool advise = cli.get_bool("advise", false);

  const core::FalseSharingDetector detector = load_or_train(cli);

  sim::MachineConfig config = sim::MachineConfig::westmere_dp(12);
  config.num_cores = wcase.threads;
  exec::Machine machine(config, wcase.seed);
  if (slice > 0) machine.enable_slicing(slice);
  baseline::ShadowDetector shadow(
      ground_truth || advise ? wcase.threads : 1);
  if (ground_truth || advise) machine.memory().add_observer(&shadow);
  w.build(machine, wcase);
  const exec::RunResult result = machine.run();
  const auto features = pmu::FeatureVector::normalize(
      pmu::CounterSnapshot::from_raw(result.aggregate));
  const trainers::Mode verdict = detector.classify(features);

  std::printf("%s %s %s T=%u seed=%llu\n", name.c_str(), wcase.input.c_str(),
              std::string(to_string(wcase.opt)).c_str(), wcase.threads,
              static_cast<unsigned long long>(wcase.seed));
  std::printf("  verdict      : %s\n",
              std::string(trainers::to_string(verdict)).c_str());
  std::printf("  time         : %s   instructions: %llu\n",
              util::auto_time(result.seconds).c_str(),
              static_cast<unsigned long long>(result.instructions));
  std::printf("  HITM/instr   : %.3e\n",
              features.get(pmu::WestmereEvent::kSnoopResponseHitM));
  if (slice > 0) {
    const auto report = core::analyze_slices(detector, result);
    std::printf("  timeline     : %s\n", report.timeline().c_str());
    const auto ranges = report.bad_fs_ranges();
    if (!ranges.empty())
      std::printf("  worst FS span: slices %zu..%zu\n", ranges.front().first,
                  ranges.front().last);
  }
  if (ground_truth || advise) {
    const auto sharing = shadow.report();
    std::printf("  ground truth : rate %.3e -> %s\n",
                sharing.false_sharing_rate(),
                sharing.has_false_sharing() ? "false sharing" : "clean");
    if (advise)
      std::printf("%s",
                  core::advise(sharing, machine.arena()).to_string().c_str());
  }
  return verdict == trainers::Mode::kGood ? 0 : 1;
}

int cmd_sweep(const util::Cli& cli) {
  const std::string name = cli.get("workload", "");
  if (name.empty()) return usage();
  const auto& w = workloads::find_workload(name);
  const core::FalseSharingDetector detector = load_or_train(cli);
  const auto machine = sim::MachineConfig::westmere_dp(12);

  // Enumerate the case grid, then run the simulations on the host pool;
  // parallel_transform keeps the table in grid order regardless of which
  // case finishes first.
  std::vector<workloads::WorkloadCase> cases;
  for (const std::string& input : w.input_sets())
    for (const workloads::OptLevel opt : w.opt_levels())
      for (const std::uint32_t t : {4u, 8u, 12u})
        cases.push_back({input, opt, t,
                         static_cast<std::uint64_t>(cli.get_int("seed", 7))});

  par::ThreadPool pool(par::pool_workers(par::cli_jobs(cli)));
  struct CaseResult {
    double seconds = 0.0;
    trainers::Mode verdict = trainers::Mode::kGood;
  };
  const std::vector<CaseResult> results = par::parallel_transform(
      pool, cases, [&](const workloads::WorkloadCase& wcase) {
        const auto run = run_workload(w, wcase, machine);
        return CaseResult{run.seconds, detector.classify(run.features)};
      });

  util::Table table({"input", "opt", "T", "time", "verdict"});
  std::vector<trainers::Mode> verdicts;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    verdicts.push_back(results[i].verdict);
    table.add_row({cases[i].input, std::string(to_string(cases[i].opt)),
                   std::to_string(cases[i].threads),
                   util::auto_time(results[i].seconds),
                   std::string(trainers::to_string(results[i].verdict))});
  }
  table.render(std::cout);
  std::printf("overall (majority): %s\n",
              std::string(trainers::to_string(
                  core::FalseSharingDetector::majority(verdicts)))
                  .c_str());
  return 0;
}

core::RobustnessConfig sweep_config_from_cli(const util::Cli& cli) {
  core::RobustnessConfig config;
  config.jitters = cli.get_double_list("noise", config.jitters, 0.0, 1.0);
  const std::vector<std::int64_t> counters = cli.get_int_list(
      "counters", {0, 8, 4, 2}, 0,
      static_cast<std::int64_t>(pmu::kNumWestmereEvents));
  config.counter_groups.assign(counters.begin(), counters.end());
  config.drops = cli.get_double_list("drop", config.drops, 0.0, 1.0);
  config.repeats = static_cast<int>(cli.get_int_in("repeats", 5, 1, 1001));
  config.min_confidence = cli.get_double_in("confidence", 0.6, 0.0, 1.0);
  config.seed = static_cast<std::uint64_t>(
      cli.get_int_in("seed", 42, 0, std::numeric_limits<std::int64_t>::max()));
  config.jobs = par::cli_jobs(cli);
  config.reduced = cli.get_bool("reduced", false);
  return config;
}

int cmd_robustness(const util::Cli& cli) {
  const core::RobustnessConfig config = sweep_config_from_cli(cli);
  const core::FalseSharingDetector detector = load_or_train(cli);
  const core::RobustnessReport report =
      core::evaluate_robustness(detector, config, &std::cerr);

  const std::string out = cli.get("out", "robustness.json");
  util::AtomicFile artifact(out);  // never leaves a torn JSON behind
  report.write_json(artifact.stream());
  artifact.commit();

  std::printf("baseline: %zu/%zu correct\n", report.baseline.correct,
              report.baseline.runs);
  util::Table table(
      {"noise", "counters", "drop", "coverage", "accuracy", "false-pos"});
  for (const core::RobustnessPoint& p : report.points) {
    char noise[16], drop[16], coverage[16], accuracy[16];
    std::snprintf(noise, sizeof noise, "%.2f", p.jitter);
    std::snprintf(drop, sizeof drop, "%.2f", p.drop);
    std::snprintf(coverage, sizeof coverage, "%.2f", p.coverage());
    std::snprintf(accuracy, sizeof accuracy, "%.2f", p.accuracy());
    table.add_row({noise,
                   p.counters == 0 ? "all" : std::to_string(p.counters), drop,
                   coverage, accuracy, std::to_string(p.false_positives)});
  }
  table.render(std::cout);
  std::printf("artifact -> %s\n", out.c_str());
  return 0;
}

ml::ZeroPositiveModel load_or_fit_anomaly(const util::Cli& cli) {
  const std::string strict = cli.get("load-anomaly", "");
  if (!strict.empty()) {
    std::fprintf(stderr, "loading anomaly model %s\n", strict.c_str());
    return ml::ZeroPositiveModel::load_file(strict);
  }
  const std::string path = cli.get("anomaly", "fsml.anomaly");
  if (static_cast<bool>(std::ifstream(path))) {
    std::fprintf(stderr, "loading anomaly model %s\n", path.c_str());
    return ml::ZeroPositiveModel::load_file(path);
  }
  std::fprintf(stderr,
               "no anomaly model at %s — fitting from reduced training data "
               "(use `fsml_analyze train --save-anomaly=%s` to persist one)\n",
               path.c_str(), path.c_str());
  core::TrainingConfig config = core::TrainingConfig::reduced();
  config.jobs = par::cli_jobs(cli);
  return core::fit_zero_positive(core::collect_training_data(config));
}

int cmd_triage(const util::Cli& cli) {
  core::TriageConfig config;
  config.sweep = sweep_config_from_cli(cli);
  config.demote_below =
      cli.get_double_in("demote-below", config.demote_below, 0.0, 1.0);

  const core::FalseSharingDetector detector = load_or_train(cli);
  core::TriageStage stage(config.demote_below);
  stage.set_anomaly_model(load_or_fit_anomaly(cli));

  const core::TriageReport report =
      core::evaluate_triage(detector, stage, config, &std::cerr);

  const std::string out = cli.get("out", "triage.json");
  util::AtomicFile artifact(out);  // never leaves a torn JSON behind
  report.write_json(artifact.stream());
  artifact.commit();

  std::printf("zero-positive: flagged %zu/%zu bad runs, %zu/%zu good runs\n",
              report.flagged_bad, report.bad_runs, report.flagged_good,
              report.good_runs);
  util::Table table({"noise", "counters", "drop", "fp s1", "fp s2", "demoted",
                     "precision", "recall", "abstain"});
  for (const core::TriageCell& c : report.cells) {
    char noise[16], drop[16], precision[16], recall[16], abstain[16];
    std::snprintf(noise, sizeof noise, "%.2f", c.jitter);
    std::snprintf(drop, sizeof drop, "%.2f", c.drop);
    std::snprintf(precision, sizeof precision, "%.2f", c.stage2.precision());
    std::snprintf(recall, sizeof recall, "%.2f",
                  c.stage2.recall(report.bad_runs));
    std::snprintf(abstain, sizeof abstain, "%.2f",
                  c.stage2.abstention(report.runs));
    table.add_row({noise,
                   c.counters == 0 ? "all" : std::to_string(c.counters), drop,
                   std::to_string(c.stage1.false_alarms),
                   std::to_string(c.stage2.false_alarms),
                   std::to_string(c.demoted), precision, recall, abstain});
  }
  table.render(std::cout);
  std::printf("artifact -> %s\n", out.c_str());
  return 0;
}

int cmd_serve(const util::Cli& cli) {
  // Every numeric flag goes through the validated get_*_in getters: an
  // out-of-range --queue-depth is an actionable error at the CLI boundary,
  // not an exception from deep inside the server.
  serve::DrillConfig config;
  config.sessions = static_cast<std::size_t>(
      cli.get_int_in("sessions", 48, 1, 100000));
  config.server.queue_depth = static_cast<std::size_t>(
      cli.get_int_in("queue-depth", 256, 1, 1 << 20));
  config.server.max_sessions = static_cast<std::size_t>(
      cli.get_int_in("max-sessions", 1024, 1, 1 << 24));
  config.server.deadline_steps = static_cast<std::uint64_t>(
      cli.get_int_in("deadline", 96, 0, 1000000000));
  config.server.idle_timeout_steps = static_cast<std::uint64_t>(
      cli.get_int_in("idle-timeout", 24, 0, 1000000000));
  config.service_rate = static_cast<std::size_t>(
      cli.get_int_in("service-rate", 4, 1, 100000));
  config.malformed_rate = cli.get_double_in("malformed", 0.0, 0.0, 1.0);
  config.cancel_rate = cli.get_double_in("cancel", 0.0, 0.0, 1.0);
  config.faults.stall_rate = cli.get_double_in("stall-rate", 0.0, 0.0, 1.0);
  config.faults.overflow_rate =
      cli.get_double_in("overflow-rate", 0.0, 0.0, 1.0);
  config.faults.throw_rate = cli.get_double_in("throw-rate", 0.0, 0.0, 1.0);
  config.faults.throw_attempts = 3;
  config.seed = static_cast<std::uint64_t>(
      cli.get_int_in("seed", 42, 0, std::numeric_limits<std::int64_t>::max()));
  config.faults.seed = config.seed;
  config.server.seed = config.seed;
  config.jobs = par::cli_jobs(cli);
  config.validate();

  const core::FalseSharingDetector detector = load_or_train(cli);
  const std::vector<core::EvalRun> templates =
      serve::drill_templates(config.seed, config.jobs, &std::cerr);
  const serve::DrillReport report =
      serve::run_drill(detector, templates, config, &std::cerr);

  std::printf("drill: %zu sessions, %llu admitted, %llu turned away\n",
              report.sessions,
              static_cast<unsigned long long>(report.admitted),
              static_cast<unsigned long long>(report.turned_away));
  util::Table table({"outcome", "count"});
  table.set_align(1, util::Align::kRight);
  table.add_row({"verdict", std::to_string(report.verdicts)});
  table.add_row({"  correct", std::to_string(report.correct)});
  table.add_row({"  false positives", std::to_string(report.false_positives)});
  table.add_row({"abstained", std::to_string(report.abstained)});
  table.add_row({"shed", std::to_string(report.shed)});
  table.add_row({"quarantined", std::to_string(report.quarantined)});
  table.add_row({"expired", std::to_string(report.expired)});
  table.add_row({"cancelled", std::to_string(report.cancelled)});
  table.add_row({"lost", std::to_string(report.lost_sessions)});
  table.render(std::cout);
  std::printf("p50/p99 latency: %llu/%llu steps, shed rate %.2f, "
              "fingerprint %08x\n",
              static_cast<unsigned long long>(report.latency_p50_steps),
              static_cast<unsigned long long>(report.latency_p99_steps),
              report.shed_rate, report.fingerprint);
  std::printf("health: %s\n", report.health.to_string().c_str());

  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    util::AtomicFile artifact(out);  // never leaves a torn JSON behind
    artifact.stream() << "{\n  \"schema\": \"" << serve::kBenchServeSchema
                      << "\",\n"
                      << "  \"seed\": " << config.seed << ",\n"
                      << "  \"sessions\": " << config.sessions << ",\n"
                      << "  \"scenarios\": [\n";
    report.write_json(artifact.stream(), "cli", config);
    artifact.stream() << "\n  ]\n}\n";
    artifact.commit();
    std::printf("artifact -> %s\n", out.c_str());
  }
  return report.lost_sessions == 0 && report.false_positives == 0 ? 0 : 1;
}

int cmd_list() {
  std::printf("benchmark workload proxies:\n");
  for (const auto* w : workloads::all_workloads()) {
    std::printf("  %-18s (%s; inputs:", std::string(w->name()).c_str(),
                std::string(to_string(w->suite())).c_str());
    for (const auto& input : w->input_sets())
      std::printf(" %s", input.c_str());
    std::printf(")\n");
  }
  std::printf("\ntraining mini-programs:\n");
  for (const auto* p : trainers::all_programs())
    std::printf("  %-14s %s — %s\n", std::string(p->name()).c_str(),
                p->multithreaded() ? "(mt) " : "(seq)",
                std::string(p->description()).c_str());
  return 0;
}

int cmd_events() {
  util::Table table({"#", "event", "code", "umask", "simulator source"});
  int n = 1;
  for (const pmu::EventInfo& info : pmu::westmere_event_table()) {
    char code[8], umask[8];
    std::snprintf(code, sizeof code, "%02X", info.event_code);
    std::snprintf(umask, sizeof umask, "%02X", info.umask);
    table.add_row({std::to_string(n++), std::string(info.name), code, umask,
                   std::string(sim::raw_event_name(info.raw))});
  }
  table.render(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string command = cli.positional()[0];
  try {
    if (command == "train") return cmd_train(cli);
    if (command == "classify") return cmd_classify(cli);
    if (command == "sweep") return cmd_sweep(cli);
    if (command == "robustness") return cmd_robustness(cli);
    if (command == "triage") return cmd_triage(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "list") return cmd_list();
    if (command == "events") return cmd_events();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
