#include "core/training.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/event_selection.hpp"
#include "core/journal.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/deadline.hpp"
#include "util/stats.hpp"
#include "util/time_format.hpp"

namespace fsml::core {

namespace {

using trainers::AccessPattern;
using trainers::MiniProgram;
using trainers::Mode;
using trainers::TrainerParams;

/// The paper's "difference not significant enough" filter: bad-ma runs
/// must be >= 20% slower than the matching good runs (median runtimes).
constexpr double kSignificanceGap = 1.20;

std::uint64_t run_seed(std::uint64_t base, const std::string& program,
                       std::uint64_t size, std::uint32_t threads, Mode mode,
                       AccessPattern pattern, int rep) {
  // FNV-1a over the run coordinates, then SplitMix to spread bits.
  std::uint64_t h = 1469598103934665603ULL ^ base;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ULL;
  };
  for (const char c : program) mix(static_cast<std::uint64_t>(c));
  mix(size);
  mix(threads);
  mix(static_cast<std::uint64_t>(mode));
  mix(static_cast<std::uint64_t>(pattern));
  mix(static_cast<std::uint64_t>(rep));
  return util::SplitMix64(h).next();
}

LabeledInstance run_one(const MiniProgram& program, std::uint64_t size,
                        std::uint32_t threads, Mode mode,
                        AccessPattern pattern, int rep,
                        const TrainingConfig& config, bool part_a,
                        std::chrono::steady_clock::time_point deadline) {
  TrainerParams params;
  params.mode = mode;
  params.threads = threads;
  params.size = size;
  params.pattern = pattern;
  params.deadline = deadline;
  params.seed = run_seed(config.seed, std::string(program.name()), size,
                         threads, mode, pattern, rep);
  const trainers::TrainerRun run =
      trainers::run_trainer(program, params, config.machine);

  LabeledInstance inst;
  inst.features = run.features;
  inst.label = label_of(mode);
  inst.program = std::string(program.name());
  inst.size = size;
  inst.threads = threads;
  inst.pattern = pattern;
  inst.seconds = run.result.seconds;
  inst.part_a = part_a;
  const LocalityFeatures locality = derived_locality(run.raw);
  inst.hitm_remote_ratio = locality.hitm_remote_ratio;
  inst.dram_remote_ratio = locality.dram_remote_ratio;
  return inst;
}

double median_seconds(const std::vector<const LabeledInstance*>& group) {
  std::vector<double> secs;
  secs.reserve(group.size());
  for (const LabeledInstance* inst : group) secs.push_back(inst->seconds);
  return util::median(std::move(secs));
}

// ---- job enumeration -------------------------------------------------------
//
// Collection is a pure map over independent simulations: the full job list
// is enumerated up front in the canonical (program, size, threads, mode,
// rep) order, executed on a host-thread pool in whatever order the
// scheduler picks, and then filtered group-by-group in enumeration order.
// Each job's RNG seed derives from its coordinates (run_seed), never from
// execution order, so any `jobs` setting produces bit-identical rows.

struct CollectJob {
  const MiniProgram* program = nullptr;
  std::uint64_t size = 0;
  std::uint32_t threads = 1;
  Mode mode = Mode::kGood;
  AccessPattern pattern = AccessPattern::kLinear;
  int rep = 0;
  bool part_a = true;
};

/// One filter group: [begin, end) into the job list. Part A groups share
/// (program, size, threads); Part B groups share (program, size).
struct JobGroup {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool part_a = true;
};

void enumerate_jobs(const TrainingConfig& config,
                    std::vector<CollectJob>& jobs,
                    std::vector<JobGroup>& groups) {
  for (const MiniProgram* program : trainers::multithreaded_set()) {
    for (const std::uint64_t size : program->default_sizes()) {
      for (const std::uint32_t threads : config.thread_counts) {
        JobGroup group{jobs.size(), 0, true};
        for (int r = 0; r < config.reps_good; ++r)
          jobs.push_back({program, size, threads, Mode::kGood,
                          AccessPattern::kLinear, r, true});
        for (int r = 0; r < config.reps_bad_fs; ++r)
          jobs.push_back({program, size, threads, Mode::kBadFs,
                          AccessPattern::kLinear, r, true});
        if (program->supports_bad_ma()) {
          for (int r = 0; r < config.reps_bad_ma; ++r) {
            const AccessPattern pattern = r % 2 == 0
                                              ? AccessPattern::kRandom
                                              : AccessPattern::kStrided;
            jobs.push_back(
                {program, size, threads, Mode::kBadMa, pattern, r, true});
          }
        }
        group.end = jobs.size();
        groups.push_back(group);
      }
    }
  }
  for (const MiniProgram* program : trainers::sequential_set()) {
    for (const std::uint64_t size : program->default_sizes()) {
      JobGroup group{jobs.size(), 0, false};
      for (int r = 0; r < config.seq_reps_good; ++r)
        jobs.push_back({program, size, 1, Mode::kGood, AccessPattern::kLinear,
                        r, false});
      for (const AccessPattern pattern :
           {AccessPattern::kRandom, AccessPattern::kStrided}) {
        for (int r = 0; r < config.seq_reps_bad_ma; ++r)
          jobs.push_back(
              {program, size, 1, Mode::kBadMa, pattern, r, false});
      }
      group.end = jobs.size();
      groups.push_back(group);
    }
  }
}

/// Stable cell coordinates of a job — the key fault schedules and
/// quarantine reports use (independent of enumeration order).
std::string job_key(const CollectJob& job) {
  return std::string(job.program->name()) + "/" + std::to_string(job.size) +
         "/" + std::to_string(job.threads) + "/" +
         std::string(trainers::to_string(job.mode)) + "/" +
         std::string(trainers::to_string(job.pattern)) + "/" +
         std::to_string(job.rep);
}

/// Fingerprint pinning a journal to one exact job grid: a journal written
/// under a different TrainingConfig must be ignored, never half-applied.
std::uint64_t config_fingerprint(const TrainingConfig& config,
                                 std::size_t total_jobs) {
  util::Crc32 crc;
  const auto mix_u64 = [&crc](std::uint64_t v) {
    crc.update(&v, sizeof v);
  };
  mix_u64(config.seed);
  mix_u64(total_jobs);
  for (const std::uint32_t t : config.thread_counts) mix_u64(t);
  mix_u64(static_cast<std::uint64_t>(config.reps_good));
  mix_u64(static_cast<std::uint64_t>(config.reps_bad_fs));
  mix_u64(static_cast<std::uint64_t>(config.reps_bad_ma));
  mix_u64(static_cast<std::uint64_t>(config.seq_reps_good));
  mix_u64(static_cast<std::uint64_t>(config.seq_reps_bad_ma));
  // The gap stays in the fingerprint so existing journals still resume.
  std::uint64_t gap_bits = 0;
  static_assert(sizeof gap_bits == sizeof kSignificanceGap);
  std::memcpy(&gap_bits, &kSignificanceGap, sizeof gap_bits);
  mix_u64(gap_bits);
  mix_u64(config.filter ? 1 : 0);
  // Spread the 32-bit CRC over 64 bits the same way run_seed does.
  return util::SplitMix64(crc.value()).next();
}

// ---- instance row codec ----------------------------------------------------
//
// One LabeledInstance <-> one CSV line, shared by the cache file and the
// collection journal. Doubles print at precision 17, which round-trips
// value-exactly through parse, so journal-replayed rows re-serialize
// byte-identically — the foundation of the "resumed cache == uninterrupted
// cache" guarantee.

std::string format_instance_row(const LabeledInstance& inst) {
  std::ostringstream os;
  os.precision(17);
  for (const double v : inst.features.values()) os << v << ',';
  os << class_names()[static_cast<std::size_t>(inst.label)] << ','
     << inst.program << ',' << inst.size << ',' << inst.threads << ','
     << trainers::to_string(inst.pattern) << ',' << inst.seconds << ','
     << (inst.part_a ? 'A' : 'B') << ',' << inst.hitm_remote_ratio << ','
     << inst.dram_remote_ratio;
  return os.str();
}

LabeledInstance parse_instance_row(const std::string& line) {
  const auto names = class_names();
  std::istringstream ss(line);
  std::string field;
  LabeledInstance inst;
  for (std::size_t i = 0; i < pmu::kNumFeatures; ++i) {
    FSML_CHECK(static_cast<bool>(std::getline(ss, field, ',')));
    inst.features.set(i, std::stod(field));
  }
  FSML_CHECK(static_cast<bool>(std::getline(ss, field, ',')));
  const auto it = std::find(names.begin(), names.end(), field);
  FSML_CHECK_MSG(it != names.end(), "unknown label in training CSV");
  inst.label = static_cast<int>(std::distance(names.begin(), it));
  FSML_CHECK(static_cast<bool>(std::getline(ss, inst.program, ',')));
  FSML_CHECK(static_cast<bool>(std::getline(ss, field, ',')));
  inst.size = std::stoull(field);
  FSML_CHECK(static_cast<bool>(std::getline(ss, field, ',')));
  inst.threads = static_cast<std::uint32_t>(std::stoul(field));
  FSML_CHECK(static_cast<bool>(std::getline(ss, field, ',')));
  if (field == "random")
    inst.pattern = AccessPattern::kRandom;
  else if (field == "strided")
    inst.pattern = AccessPattern::kStrided;
  else
    inst.pattern = AccessPattern::kLinear;
  FSML_CHECK(static_cast<bool>(std::getline(ss, field, ',')));
  inst.seconds = std::stod(field);
  FSML_CHECK(static_cast<bool>(std::getline(ss, field, ',')));
  inst.part_a = field == "A";
  // Locality columns arrived after the first cache format; rows without
  // them (legacy caches, journals) load as single-socket zeros.
  if (std::getline(ss, field, ',')) {
    inst.hitm_remote_ratio = std::stod(field);
    FSML_CHECK_MSG(static_cast<bool>(std::getline(ss, field, ',')),
                   "truncated locality columns in training CSV");
    inst.dram_remote_ratio = std::stod(field);
  }
  return inst;
}

// ---- significance filters (paper Table 3) ----------------------------------

/// Part-A filter: census the group, drop its bad-ma instances when they are
/// not significantly slower than good; append survivors to `data`.
void filter_group_a(std::vector<LabeledInstance> group,
                    const TrainingConfig& config, TrainingData& data) {
  std::vector<const LabeledInstance*> good, bad_ma;
  for (const LabeledInstance& inst : group) {
    if (inst.label == kGood) {
      ++data.census_a.initial_good;
      good.push_back(&inst);
    } else if (inst.label == kBadFs) {
      ++data.census_a.initial_bad_fs;
    } else {
      ++data.census_a.initial_bad_ma;
      bad_ma.push_back(&inst);
    }
  }
  bool drop_bad_ma = false;
  // A group whose good runs were all quarantined has no baseline to filter
  // against; keep its survivors rather than comparing to nothing.
  if (config.filter && !bad_ma.empty() && !good.empty()) {
    const double good_med = median_seconds(good);
    const double bad_med = median_seconds(bad_ma);
    drop_bad_ma = bad_med < kSignificanceGap * good_med;
  }
  for (LabeledInstance& inst : group) {
    if (drop_bad_ma && inst.label == kBadMa) {
      ++data.census_a.removed_bad_ma;
      continue;
    }
    data.instances.push_back(std::move(inst));
  }
}

/// Part-B filter: drop insignificant bad-ma patterns; if none of the
/// patterns is significant the whole group (good included) goes.
void filter_group_b(std::vector<LabeledInstance> group,
                    const TrainingConfig& config, TrainingData& data) {
  std::vector<const LabeledInstance*> good;
  std::map<AccessPattern, std::vector<const LabeledInstance*>> bad_ma;
  for (const LabeledInstance& inst : group) {
    if (inst.label == kGood) {
      ++data.census_b.initial_good;
      good.push_back(&inst);
    } else {
      ++data.census_b.initial_bad_ma;
      bad_ma[inst.pattern].push_back(&inst);
    }
  }

  std::vector<AccessPattern> dropped_patterns;
  if (config.filter && !good.empty()) {  // quarantine can empty the baseline
    const double good_med = median_seconds(good);
    for (const auto& [pattern, instances] : bad_ma) {
      if (median_seconds(instances) < kSignificanceGap * good_med)
        dropped_patterns.push_back(pattern);
    }
  }
  const bool drop_group = dropped_patterns.size() == bad_ma.size() &&
                          !bad_ma.empty() && config.filter;
  for (LabeledInstance& inst : group) {
    const bool dropped_pattern =
        inst.label == kBadMa &&
        std::find(dropped_patterns.begin(), dropped_patterns.end(),
                  inst.pattern) != dropped_patterns.end();
    if (drop_group || dropped_pattern) {
      if (inst.label == kGood)
        ++data.census_b.removed_good;
      else
        ++data.census_b.removed_bad_ma;
      continue;
    }
    data.instances.push_back(std::move(inst));
  }
}

}  // namespace

TrainingConfig TrainingConfig::reduced() {
  TrainingConfig cfg;
  cfg.thread_counts = {3, 6};
  cfg.reps_good = 1;
  cfg.reps_bad_fs = 1;
  cfg.reps_bad_ma = 1;
  cfg.seq_reps_good = 1;
  cfg.seq_reps_bad_ma = 1;
  return cfg;
}

TrainingData collect_training_data(const TrainingConfig& config,
                                   std::ostream* log,
                                   const CollectOptions& options,
                                   CollectReport* report) {
  if (options.deadline.count() < 0)
    throw std::runtime_error("CollectOptions: deadline must be >= 0");
  const auto start = std::chrono::steady_clock::now();

  std::vector<CollectJob> jobs;
  std::vector<JobGroup> groups;
  enumerate_jobs(config, jobs, groups);

  // Durable progress: replay a matching journal (resume) or start fresh.
  Journal journal;
  std::map<std::size_t, std::string> replayed;
  if (!options.journal_path.empty()) {
    if (!options.resume) std::remove(options.journal_path.c_str());
    std::string note;
    replayed = journal.open_and_replay(
        options.journal_path, config_fingerprint(config, jobs.size()), &note);
    replayed.erase(replayed.lower_bound(jobs.size()), replayed.end());
    if (log && options.resume) *log << note << '\n' << std::flush;
  }

  const std::size_t n_jobs = par::resolve_jobs(config.jobs);
  par::ThreadPool pool(par::pool_workers(n_jobs));
  fault::FaultInjector inert;
  fault::FaultInjector* injector =
      options.injector != nullptr ? options.injector : &inert;

  std::mutex log_mutex;
  std::size_t completed = 0;
  std::atomic<std::size_t> executed{0};
  const std::size_t progress_step = std::max<std::size_t>(jobs.size() / 16, 1);
  if (log)
    *log << "collecting " << jobs.size() << " training runs on " << n_jobs
         << " job(s)"
         << (replayed.empty()
                 ? std::string()
                 : " (" + std::to_string(replayed.size()) +
                       " replayed from journal)")
         << '\n'
         << std::flush;

  auto outcome = par::supervise(
      pool, jobs.size(), options.max_attempts,
      [&](std::size_t i, int attempt) {
        const auto hit = replayed.find(i);
        if (hit != replayed.end()) return parse_instance_row(hit->second);

        // Every attempt gets the whole budget, counted from its own start.
        const auto deadline =
            options.deadline.count() > 0
                ? std::chrono::steady_clock::now() + options.deadline
                : util::kNoDeadline;
        const CollectJob& job = jobs[i];
        const std::string key = job_key(job);
        injector->maybe_throw("collect.run", key, attempt);
        if (injector->should_hang(key)) injector->hang(deadline);

        LabeledInstance inst =
            run_one(*job.program, job.size, job.threads, job.mode,
                    job.pattern, job.rep, config, job.part_a, deadline);
        injector->count_completion();  // may raise the injected mid-sweep
                                       // abort (NonRetryable: sweep stops)
        executed.fetch_add(1, std::memory_order_relaxed);
        if (journal.is_open()) journal.append(i, format_instance_row(inst));
        if (log) {
          const std::lock_guard<std::mutex> lock(log_mutex);
          ++completed;
          if (completed % progress_step == 0 || completed == jobs.size())
            *log << "collected " << completed << '/' << jobs.size()
                 << " runs\n"
                 << std::flush;
        }
        return inst;
      });

  if (log) {
    for (const par::JobFailure& f : outcome.failures)
      *log << "quarantined " << job_key(jobs[f.index]) << " after "
           << f.attempts << " attempt(s)"
           << (f.timed_out ? " [deadline]" : "") << ": " << f.error << '\n'
           << std::flush;
  }

  // Census + significance filtering run serially in enumeration order, so
  // the assembled rows are independent of the execution schedule above.
  // Quarantined jobs have empty slots and simply drop out of their group.
  TrainingData data;
  for (const JobGroup& group : groups) {
    std::vector<LabeledInstance> members;
    members.reserve(group.end - group.begin);
    for (std::size_t i = group.begin; i < group.end; ++i)
      if (outcome.results[i].has_value())
        members.push_back(std::move(*outcome.results[i]));
    if (group.part_a)
      filter_group_a(std::move(members), config, data);
    else
      filter_group_b(std::move(members), config, data);
  }

  if (report) {
    report->total_jobs = jobs.size();
    report->replayed = replayed.size();
    report->executed = executed.load();
    report->retried_attempts = outcome.retried_attempts;
    report->quarantined.clear();
    for (const par::JobFailure& f : outcome.failures)
      report->quarantined.push_back({f, job_key(jobs[f.index])});
  }

  if (log) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    *log << "collection complete: " << data.instances.size()
         << " instances in " << util::auto_time(elapsed) << " (" << n_jobs
         << " job(s)";
    if (!outcome.failures.empty())
      *log << ", " << outcome.failures.size() << " quarantined";
    if (outcome.retried_attempts > 0)
      *log << ", " << outcome.retried_attempts << " retried";
    *log << ")\n" << std::flush;
  }
  return data;
}

ml::Dataset TrainingData::to_dataset() const {
  ml::Dataset dataset(pmu::FeatureVector::feature_names(), class_names());
  for (const LabeledInstance& inst : instances) {
    std::vector<double> x(inst.features.values().begin(),
                          inst.features.values().end());
    dataset.add(std::move(x), inst.label);
  }
  return dataset;
}

std::vector<double> extended_row(const LabeledInstance& inst) {
  std::vector<double> x(inst.features.values().begin(),
                        inst.features.values().end());
  x.push_back(inst.hitm_remote_ratio);
  x.push_back(inst.dram_remote_ratio);
  return x;
}

std::vector<std::vector<double>> TrainingData::good_extended_rows() const {
  std::vector<std::vector<double>> rows;
  for (const LabeledInstance& inst : instances)
    if (inst.label == kGood) rows.push_back(extended_row(inst));
  return rows;
}

namespace {

void write_census(std::ostream& os, const char* tag, const Census& c) {
  os << "# census " << tag << ' ' << c.initial_good << ' ' << c.initial_bad_fs
     << ' ' << c.initial_bad_ma << ' ' << c.removed_good << ' '
     << c.removed_bad_fs << ' ' << c.removed_bad_ma << '\n';
}

Census read_census(const std::string& line) {
  std::istringstream ss(line);
  std::string hash, word, tag;
  Census c;
  ss >> hash >> word >> tag >> c.initial_good >> c.initial_bad_fs >>
      c.initial_bad_ma >> c.removed_good >> c.removed_bad_fs >>
      c.removed_bad_ma;
  FSML_CHECK_MSG(static_cast<bool>(ss), "malformed census line");
  return c;
}

}  // namespace

void TrainingData::save_csv(std::ostream& os) const {
  std::ostringstream body;
  write_census(body, "A", census_a);
  write_census(body, "B", census_b);
  for (const auto& name : pmu::FeatureVector::feature_names())
    body << name << ',';
  body << "label,program,size,threads,pattern,seconds,part,"
          "hitm_remote_ratio,dram_remote_ratio\n";
  for (const LabeledInstance& inst : instances)
    body << format_instance_row(inst) << '\n';
  const std::string bytes = body.str();
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", util::crc32(bytes));
  // The footer detects any in-row corruption; the census pins the row
  // count, so together they catch both flipped bytes and truncation.
  os << bytes << "# crc32 " << crc << '\n';
}

TrainingData TrainingData::load_csv(std::istream& is) {
  TrainingData data;
  std::string line;
  util::Crc32 body_crc;
  const auto next_line = [&](std::string& out) {
    if (!std::getline(is, out)) return false;
    if (out.rfind("# crc32 ", 0) == 0) {
      unsigned long long stored = 0;
      FSML_CHECK_MSG(std::sscanf(out.c_str() + 8, "%llx", &stored) == 1,
                     "malformed CRC footer in training CSV");
      FSML_CHECK_MSG(body_crc.value() == stored,
                     "training CSV CRC mismatch: the cache is corrupt");
      return false;
    }
    body_crc.update(out.data(), out.size());
    body_crc.update("\n", 1);
    return true;
  };

  FSML_CHECK_MSG(next_line(line), "empty training CSV");
  data.census_a = read_census(line);
  FSML_CHECK(next_line(line));
  data.census_b = read_census(line);
  FSML_CHECK(next_line(line));  // header

  while (next_line(line)) {
    if (line.empty()) continue;
    data.instances.push_back(parse_instance_row(line));
  }
  // A file truncated at a row boundary parses cleanly but is still missing
  // data; the census header pins the expected row count. It also guards
  // legacy caches, which predate the CRC footer.
  FSML_CHECK_MSG(data.instances.size() ==
                     data.census_a.final_total() + data.census_b.final_total(),
                 "training CSV row count does not match its census");
  return data;
}

TrainingData collect_or_load(const TrainingConfig& config,
                             const std::string& path, std::ostream* log,
                             const CollectOptions& options,
                             CollectReport* report) {
  {
    std::ifstream in(path);
    if (in) {
      try {
        TrainingData data = TrainingData::load_csv(in);
        if (log) *log << "loaded cached training data from " << path << '\n';
        return data;
      } catch (const std::exception& e) {
        // A truncated or corrupt cache must not take the pipeline down (or
        // worse, silently feed it a partial dataset): discard and re-collect.
        if (log)
          *log << "training cache " << path << " is unusable (" << e.what()
               << "); re-collecting\n";
      }
    }
  }
  CollectOptions opts = options;
  if (opts.journal_path.empty()) opts.journal_path = path + ".journal";
  CollectReport local_report;
  if (report == nullptr) report = &local_report;
  TrainingData data = collect_training_data(config, log, opts, report);
  if (!report->quarantined.empty()) {
    // Every later load would trust a cache of this partial dataset. Keep
    // the journal instead, so a resume re-runs only the quarantined cells.
    if (log)
      *log << "training cache " << path << " not written: "
           << report->quarantined.size()
           << " cell(s) quarantined; the journal " << opts.journal_path
           << " keeps the completed cells for a resume\n";
    return data;
  }

  std::ostringstream out;
  data.save_csv(out);
  std::string bytes = out.str();
  if (options.injector != nullptr)
    bytes = options.injector->corrupt(std::move(bytes));
  util::write_file_atomic(path, bytes);
  // The cache is durable; the journal has served its purpose.
  std::remove(opts.journal_path.c_str());
  if (log) *log << "training data cached to " << path << '\n';
  return data;
}

}  // namespace fsml::core
