// tegrec_cli — command-line front end for the library.
//
// Every command, its one-line purpose and its flags are listed once, in
// the command table (kCommands, at the end of the anonymous namespace):
// parse_flags(), usage() (printed when the tool runs without a valid
// command) and the dispatch in main() all read it.  `batch --spool` and
// `worker` form the crash-safe multi-process farm (docs/farm.md); `stream`
// is the live mode (docs/streaming.md).  Anywhere a `--scenario` is
// accepted the resulting spec carries the scenario name into its canonical
// text, so repeated runs of the same scenario are cache hits.
//
// Flag values are parsed with util::parse — a non-numeric or trailing-junk
// value (`--seeds abc`, `--duration 10x`) is an error, never a silent zero —
// and unknown flags are rejected instead of ignored.
// GCC 12's -O3 middle end raises false-positive -Warray-bounds/-Wrestrict
// reports from the inlined reallocation of std::vector<std::pair<std::string,
// json::Value>> (the batch summary's Object growth; GCC PR105329 family).
// The library itself compiles clean — suppress for this tool TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "predict/bpnn.hpp"
#include "predict/evaluate.hpp"
#include "predict/holt.hpp"
#include "predict/mlr.hpp"
#include "predict/svr.hpp"
#include "sim/artifact_store.hpp"
#include "sim/experiment.hpp"
#include "sim/result_io.hpp"
#include "sim/results.hpp"
#include "sim/service.hpp"
#include "sim/spec.hpp"
#include "sim/spool.hpp"
#include "sim/stream_server.hpp"
#include "sim/telemetry.hpp"
#include "thermal/scenario.hpp"
#include "thermal/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

using namespace tegrec;

// ------------------------------------------------------------------ flags

/// Each given flag's values in order; a bool flag holds "1", and a flag
/// that is not repeatable keeps only its last value.
using FlagMap = std::map<std::string, std::vector<std::string>>;

/// `--name METAVAR` takes one value; an empty metavar makes a bool flag.
struct Flag {
  std::string name;
  std::string metavar;
  bool repeatable = false;
};

struct Command {
  std::string name;
  std::string summary;  ///< what the command does, for usage()
  std::vector<Flag> flags;
  int (*run)(const FlagMap&);
};

/// `--key value` parser over one command's flags.  Anything else — an
/// unknown flag, a missing value, a stray positional — is an error.
FlagMap parse_flags(const Command& command, int argc, char** argv) {
  FlagMap flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected a --flag, got '" + arg + "'");
    }
    const auto flag =
        std::find_if(command.flags.begin(), command.flags.end(),
                     [&](const Flag& f) { return arg == "--" + f.name; });
    if (flag == command.flags.end()) {
      std::string known;
      for (const Flag& f : command.flags) known += " --" + f.name;
      throw std::invalid_argument("unknown flag '" + arg + "' (accepted:" +
                                  known + ")");
    }
    std::vector<std::string>& values = flags[flag->name];
    if (!flag->repeatable) values.clear();
    if (flag->metavar.empty()) {
      values.push_back("1");
    } else if (i + 1 < argc) {
      values.push_back(argv[++i]);
    } else {
      throw std::invalid_argument("flag '" + arg + "' needs a value");
    }
  }
  return flags;
}

std::string flag_or(const FlagMap& flags, const std::string& key,
                    const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second.back();
}

/// The flag's value through a util::parse function, `fallback` when unset.
template <typename T>
T flag_parsed(const FlagMap& flags, const std::string& key, T fallback,
              T (*parse)(const std::string&)) {
  if (flags.count(key) == 0) return fallback;
  try {
    return parse(flag_or(flags, key, ""));
  } catch (const std::exception& e) {
    throw std::invalid_argument("--" + key + ": " + e.what());
  }
}

double flag_double(const FlagMap& flags, const std::string& key,
                   double fallback) {
  return flag_parsed(flags, key, fallback, util::parse_double);
}

std::uint64_t flag_u64(const FlagMap& flags, const std::string& key,
                       std::uint64_t fallback) {
  return flag_parsed(flags, key, fallback, util::parse_u64);
}

std::size_t flag_size(const FlagMap& flags, const std::string& key,
                      std::size_t fallback) {
  return static_cast<std::size_t>(
      flag_u64(flags, key, static_cast<std::uint64_t>(fallback)));
}

/// `--scenario NAME` (empty when unset) and the positive `--duration T`
/// that shapes the built-in schedule instead; a scenario fixes its own, so
/// the two together are an error.
std::pair<std::string, double> schedule_flags(const FlagMap& flags,
                                              double fallback_duration) {
  const std::string scenario = flag_or(flags, "scenario", "");
  if (!scenario.empty() && flags.count("duration") != 0) {
    throw std::invalid_argument(
        "--duration shapes the built-in schedule; a --scenario fixes its "
        "own schedule");
  }
  const double duration = flag_double(flags, "duration", fallback_duration);
  if (duration <= 0.0) {
    throw std::invalid_argument("--duration must be positive");
  }
  return {scenario, duration};
}

/// `flags` plus `--threads` and `--max-groups`, the SimulationOptions
/// execution knobs that apply_sim_flags() reads.
std::vector<Flag> with_sim_flags(std::vector<Flag> flags) {
  flags.push_back({"threads", "W"});
  flags.push_back({"max-groups", "G"});
  return flags;
}

void apply_sim_flags(const FlagMap& flags, sim::SimulationOptions& options) {
  options.num_threads = flag_size(flags, "threads", options.num_threads);
  options.ehtr_max_groups =
      flag_size(flags, "max-groups", options.ehtr_max_groups);
}

sim::ServiceOptions service_options(const FlagMap& flags,
                                    std::size_t num_workers) {
  sim::ServiceOptions options;
  options.num_workers = num_workers;
  options.cache_dir = flag_or(flags, "cache", "");
  options.cache_max_bytes = flag_u64(flags, "cache-max-bytes", 0);
  return options;
}

/// A flag the chosen mode would ignore is an error naming it, never a
/// silent no-op.
void reject_flags(const FlagMap& flags, const std::vector<std::string>& keys,
                  const std::string& why) {
  for (const std::string& key : keys) {
    if (flags.count(key)) throw std::invalid_argument("--" + key + " " + why);
  }
}

/// Runs one spec on a single-worker service (disk-cached under --cache),
/// prints its result, then notes whether it executed or hit the cache.
void run_one(const FlagMap& flags, const sim::ExperimentSpec& spec,
             const std::function<void(const sim::ExperimentResult&)>& print) {
  sim::ExperimentService service(service_options(flags, /*num_workers=*/1));
  const sim::JobHandle job = service.submit(spec);
  print(*job.wait());
  std::fprintf(stderr, "[job %s: %s]\n", job.fingerprint().c_str(),
               job.from_cache() ? "cache hit" : "executed");
}

// --------------------------------------------------------------- commands

int cmd_scenarios(const FlagMap&) {
  util::TextTable table({"scenario", "description"});
  for (const auto& info : thermal::scenario_catalog()) {
    table.begin_row().add(info.name).add(info.description);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("use with: tegrec_cli simulate|trace|montecarlo --scenario "
              "NAME, or `trace.scenario = NAME` in a spec file\n");
  return 0;
}

int cmd_trace(const FlagMap& flags) {
  thermal::TraceGeneratorConfig config;
  const auto [scenario_name, duration] = schedule_flags(flags, 800.0);
  if (!scenario_name.empty()) config = thermal::scenario(scenario_name);
  config.seed = flag_u64(flags, "seed", config.seed);
  config.layout.num_modules =
      flag_size(flags, "modules", config.layout.num_modules);
  if (scenario_name.empty() && duration != 800.0) {
    // Scale the default cycle's segments proportionally.
    auto segments = thermal::default_porter_cycle();
    for (auto& s : segments) s.duration_s *= duration / 800.0;
    config.segments = std::move(segments);
  }
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  const std::string out = flag_or(flags, "out", "trace.csv");
  trace.save_csv(out);
  std::printf("wrote %zu steps x %zu modules (%.0f s) to %s\n", trace.num_steps(),
              trace.num_modules(), trace.duration_s(), out.c_str());
  return 0;
}

int cmd_simulate(const FlagMap& flags) {
  sim::ExperimentSpec spec;
  const std::string spec_path = flag_or(flags, "spec", "");
  const std::string trace_path = flag_or(flags, "trace", "");
  const std::string scenario_name = flag_or(flags, "scenario", "");
  if (int{!spec_path.empty()} + int{!trace_path.empty()} +
          int{!scenario_name.empty()} > 1) {
    throw std::invalid_argument(
        "--spec, --trace and --scenario are mutually exclusive");
  }
  if (!spec_path.empty()) {
    spec = sim::ExperimentSpec::from_file(spec_path);
    if (spec.kind != sim::ExperimentKind::kComparison) {
      throw std::invalid_argument("simulate runs comparison specs; use "
                                  "`tegrec_cli batch` for other kinds");
    }
  } else if (!trace_path.empty()) {
    spec.trace.kind = sim::TraceSource::Kind::kCsvFile;
    spec.trace.csv_path = trace_path;
  } else if (!scenario_name.empty()) {
    spec.trace = sim::scenario_source(scenario_name);
  }  // else: the default generated trace (TraceGeneratorConfig defaults)

  spec.kind = sim::ExperimentKind::kComparison;
  // Flags override the spec file; unset flags keep its values (which are
  // the library defaults when no --spec was given).
  apply_sim_flags(flags, spec.comparison.sim);
  if (flags.count("scheme")) {  // only an explicit flag overrides the spec
    const std::string s = flag_or(flags, "scheme", "");
    const bool all = s == "all";
    if (!all && s != "dnor" && s != "inor" && s != "ehtr" && s != "baseline") {
      throw std::invalid_argument("simulate: unknown --scheme '" + s +
                                  "' (expected dnor|inor|ehtr|baseline|all)");
    }
    spec.comparison.include_dnor = all || s == "dnor";
    spec.comparison.include_inor = all || s == "inor";
    spec.comparison.include_ehtr = all || s == "ehtr";
    spec.comparison.include_baseline = all || s == "baseline";
  }
  run_one(flags, spec, [](const sim::ExperimentResult& result) {
    std::printf("%s\n", sim::render_table1(result.comparison.runs).c_str());
  });
  return 0;
}

int cmd_predict(const FlagMap& flags) {
  const std::string path = flag_or(flags, "trace", "");
  const thermal::TemperatureTrace trace =
      path.empty() ? thermal::default_experiment_trace()
                   : thermal::TemperatureTrace::load_csv(path);
  const std::string method = flag_or(flags, "method", "mlr");
  const double horizon_s = flag_double(flags, "horizon", 1.0);
  // Checked before the size_t cast below, which is undefined for a
  // negative or out-of-range step count.
  const double horizon_steps = horizon_s / trace.dt_s();
  if (!(horizon_s > 0.0) ||
      !(horizon_steps < static_cast<double>(trace.num_steps()))) {
    throw std::invalid_argument(
        "--horizon must be > 0 s and shorter than the trace");
  }

  std::unique_ptr<predict::Predictor> predictor;
  if (method == "mlr") {
    predictor = std::make_unique<predict::MlrPredictor>();
  } else if (method == "bpnn") {
    predictor = std::make_unique<predict::BpnnPredictor>(
        predict::BpnnParams{.epochs = 8, .module_stride = 5});
  } else if (method == "svr") {
    predictor = std::make_unique<predict::SvrPredictor>(
        predict::SvrParams{.iterations = 120, .module_stride = 5});
  } else if (method == "holt") {
    predictor = std::make_unique<predict::HoltPredictor>();
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 1;
  }

  predict::EvaluationOptions options;
  options.window = 30;
  options.horizon_steps =
      std::max<std::size_t>(1, static_cast<std::size_t>(horizon_steps));
  const auto res = predict::evaluate_online(*predictor, trace, options);
  std::printf("%s @ %.1f s horizon: mean MAPE %.4f %%, max %.4f %%, "
              "fit %.3f ms, predict %.3f ms\n",
              res.predictor_name.c_str(), horizon_s, res.mean_mape_percent,
              res.max_mape_percent, res.mean_fit_time_ms, res.mean_predict_time_ms);
  return 0;
}

int cmd_montecarlo(const FlagMap& flags) {
  sim::ExperimentSpec spec;
  spec.kind = sim::ExperimentKind::kMonteCarlo;
  const auto [scenario_name, duration] = schedule_flags(flags, 200.0);
  if (!scenario_name.empty()) {
    spec.trace = sim::scenario_source(scenario_name);
    spec.trace.generator.layout.num_modules =
        flag_size(flags, "modules", spec.trace.generator.layout.num_modules);
  } else {
    spec.trace.generator.seed = 0;  // immaterial: the engine re-seeds per sample
    spec.trace.generator.layout.num_modules = flag_size(flags, "modules", 100);
    // Short mixed slice per seed, urban then cruise, scaled to --duration.
    spec.trace.generator.segments = {
        {thermal::DriveSegment::Kind::kUrban, duration / 2.0, 32.0, 0.0},
        {thermal::DriveSegment::Kind::kCruise, duration / 2.0, 70.0, 0.0}};
  }
  spec.comparison.include_inor = false;
  spec.comparison.include_ehtr = false;
  spec.mc_num_seeds = flag_size(flags, "seeds", 10);
  spec.mc_first_seed = flag_u64(flags, "first-seed", 100);
  spec.mc_num_threads = flag_size(flags, "threads", 0);

  run_one(flags, spec, [](const sim::ExperimentResult& result) {
    const sim::MonteCarloSummary& summary = result.monte_carlo;
    util::TextTable table({"seed", "DNOR (J)", "Baseline (J)", "gain %"});
    for (const auto& s : summary.samples) {
      table.begin_row()
          .add(static_cast<long long>(s.seed))
          .add(s.dnor_energy_j, 1)
          .add(s.baseline_energy_j, 1)
          .add(100.0 * s.gain, 1);
    }
    std::printf("%s\n", table.render().c_str());
    // Seeds whose fixed baseline harvested nothing have no defined gain
    // (their rows read "nan"); they are left out of the aggregate rather
    // than folded in as zeros.
    const std::size_t defined = summary.gain.count();
    if (defined == 0) {
      std::printf("gain over %zu drives: undefined (baseline harvested 0 J "
                  "on every seed)\n",
                  summary.samples.size());
      return;
    }
    std::string qualifier;
    if (defined != summary.samples.size()) {
      qualifier = " (" + std::to_string(defined) + " with defined gain)";
    }
    std::printf("gain over %zu drives%s: mean %.1f %%, sd %.1f %%, "
                "range [%.1f, %.1f] %%\n",
                summary.samples.size(), qualifier.c_str(),
                100.0 * summary.gain.mean(), 100.0 * summary.gain.stddev(),
                100.0 * summary.gain.min(), 100.0 * summary.gain.max());
  });
  return 0;
}

// ------------------------------------------------------------------ batch

/// Finite numbers pass through; non-finite ones become JSON null (dump()
/// rejects NaN/Inf, and a null is more honest than a sentinel).
util::json::Value json_num(double v) {
  return std::isfinite(v) ? util::json::Value(v) : util::json::Value();
}

util::json::Value stats_json(const util::RunningStats& stats) {
  // An empty statistic (e.g. every seed's gain was undefined) must read as
  // null, not as RunningStats' 0.0 defaults — a machine consumer would
  // take those for a measured zero.
  const auto num = [&](double v) {
    return stats.count() == 0 ? util::json::Value() : json_num(v);
  };
  return util::json::Object{{"count", stats.count()},
                            {"mean", num(stats.mean())},
                            {"stddev", num(stats.stddev())},
                            {"min", num(stats.min())},
                            {"max", num(stats.max())}};
}

util::json::Value result_json(const sim::ExperimentResult& result) {
  switch (result.kind) {
    case sim::ExperimentKind::kComparison: {
      util::json::Array runs;
      for (const auto& run : result.comparison.runs) {
        runs.push_back(util::json::Object{
            {"algorithm", run.algorithm},
            {"energy_output_j", json_num(run.energy_output_j)},
            {"switch_overhead_j", json_num(run.switch_overhead_j)},
            {"avg_runtime_ms", json_num(run.avg_runtime_ms)},
            {"ratio_to_ideal", json_num(run.ratio_to_ideal())}});
      }
      return util::json::Object{{"runs", std::move(runs)}};
    }
    case sim::ExperimentKind::kMonteCarlo:
      return util::json::Object{
          {"num_seeds", result.monte_carlo.samples.size()},
          {"gain", stats_json(result.monte_carlo.gain)},
          {"dnor_energy_j", stats_json(result.monte_carlo.dnor_energy_j)}};
    case sim::ExperimentKind::kSweep: {
      util::json::Array points;
      for (const auto& p : result.sweep) {
        points.push_back(util::json::Object{
            {"value", json_num(p.value)},
            {"dnor_energy_j", json_num(p.dnor_energy_j)},
            {"baseline_energy_j", json_num(p.baseline_energy_j)},
            {"gain", json_num(p.gain)},
            {"dnor_ratio_to_ideal", json_num(p.dnor_ratio_to_ideal)}});
      }
      return util::json::Object{{"points", std::move(points)}};
    }
  }
  return {};
}

std::vector<std::string> collect_spec_files(const std::string& path) {
  namespace fs = std::filesystem;
  if (!fs::exists(path)) {
    throw std::invalid_argument("--specs: no such file or directory: " + path);
  }
  if (fs::is_regular_file(path)) return {path};
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(path)) {
    if (entry.is_regular_file() && entry.path().extension() == ".spec") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw std::invalid_argument("--specs: no *.spec files in " + path);
  }
  return files;
}

/// A terminal job: its progress text on stderr, and the fields that follow
/// the fingerprint in its summary entry.
struct BatchOutcome {
  std::string progress;
  util::json::Object fields;
  bool ok = false;
};

/// What differs between running `batch` in process and through the spool
/// farm; run_batch() does the rest.  Callbacks take the job's index.
struct BatchBackend {
  /// Queues a parsed spec; returns its fingerprint.
  std::function<std::string(std::size_t, const sim::ExperimentSpec&)> submit;
  /// The job's outcome once it is terminal; nullopt while it is not.
  std::function<std::optional<BatchOutcome>(std::size_t)> poll;
  std::function<void()> before_poll = [] {};
  /// The summary's counters and its text line, given the failure count.
  std::function<std::pair<util::json::Object, std::string>(int)> summary;
  int poll_ms = 10;
  std::uint64_t wait_ms = 0;  ///< give up after this long; 0 waits forever
};

/// Submits every spec file, reports each job on stderr the moment it turns
/// terminal, and prints the summary (JSON with --json).  Exits non-zero if
/// any job is invalid, failed or unfinished.
int run_batch(const std::vector<std::string>& files, bool as_json,
              const BatchBackend& backend) {
  const std::size_t n = files.size();
  std::vector<util::json::Object> entries(n);
  std::vector<std::string> kinds(n);
  std::vector<bool> terminal(n, false);
  std::size_t reported = 0;
  int failures = 0;
  for (std::size_t i = 0; i < n; ++i) {
    entries[i] = {{"file", files[i]}};
    try {
      const sim::ExperimentSpec spec = sim::ExperimentSpec::from_file(files[i]);
      kinds[i] = sim::to_string(spec.kind);
      const std::string fingerprint = backend.submit(i, spec);
      entries[i].emplace_back("kind", kinds[i]);
      entries[i].emplace_back("fingerprint", fingerprint);
    } catch (const std::exception& e) {
      entries[i].emplace_back("status", "invalid");
      entries[i].emplace_back("error", e.what());
      terminal[i] = true;
      ++reported;
      ++failures;
      std::fprintf(stderr, "[%zu/%zu] %s: invalid spec: %s\n", i + 1, n,
                   files[i].c_str(), e.what());
    }
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(backend.wait_ms);
  while (reported < n) {
    backend.before_poll();
    bool progressed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (terminal[i]) continue;
      std::optional<BatchOutcome> outcome = backend.poll(i);
      if (!outcome.has_value()) continue;
      terminal[i] = progressed = true;
      for (auto& field : outcome->fields) {
        entries[i].push_back(std::move(field));
      }
      failures += outcome->ok ? 0 : 1;
      std::fprintf(stderr, "[%zu/%zu] %s: %s %s\n", ++reported, n,
                   files[i].c_str(), kinds[i].c_str(),
                   outcome->progress.c_str());
    }
    if (reported == n) break;
    if (backend.wait_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "batch: gave up after %llu ms with %zu job(s) "
                           "unfinished\n",
                   static_cast<unsigned long long>(backend.wait_ms),
                   n - reported);
      break;
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backend.poll_ms));
    }
  }

  util::json::Array job_entries;
  for (std::size_t i = 0; i < n; ++i) {
    if (!terminal[i]) {
      entries[i].emplace_back("status", "pending");
      ++failures;
    }
    job_entries.push_back(std::move(entries[i]));
  }
  auto [summary, line] = backend.summary(failures);
  summary.insert(summary.begin(), {{"schema", 1}, {"num_jobs", n}});
  summary.emplace_back("jobs", std::move(job_entries));
  // The summary must round-trip: parse it back before anyone else has to.
  const std::string text = util::json::dump(summary, as_json ? 2 : 0);
  util::json::parse(text);
  std::printf("%s\n", as_json ? text.c_str() : line.c_str());
  return failures == 0 ? 0 : 1;
}

int batch_in_process(const FlagMap& flags,
                     const std::vector<std::string>& files, bool as_json) {
  sim::ExperimentService service(
      service_options(flags, flag_size(flags, "jobs", 0)));
  std::vector<sim::JobHandle> jobs(files.size());
  std::vector<std::chrono::steady_clock::time_point> submitted(files.size());

  BatchBackend backend;
  backend.submit = [&](std::size_t i, const sim::ExperimentSpec& spec) {
    submitted[i] = std::chrono::steady_clock::now();
    jobs[i] = service.submit(spec);
    return jobs[i].fingerprint();
  };
  backend.poll = [&](std::size_t i) -> std::optional<BatchOutcome> {
    const sim::JobHandle& job = jobs[i];
    const sim::JobStatus status = job.status();
    if (status == sim::JobStatus::kQueued ||
        status == sim::JobStatus::kRunning) {
      return std::nullopt;
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - submitted[i])
                               .count();
    BatchOutcome out{"cancelled", {{"wall_ms", json_num(wall_ms)}}};
    if (status == sim::JobStatus::kDone) {
      out.ok = true;
      out.progress = job.from_cache() ? "cached" : "executed";
      out.fields.insert(out.fields.end(),
                        {{"status", "done"},
                         {"from_cache", job.from_cache()},
                         {"result", result_json(*job.poll())}});
    } else if (status == sim::JobStatus::kFailed) {
      out.progress = "FAILED";
      out.fields.emplace_back("status", "failed");
      try {
        job.wait();
      } catch (const std::exception& e) {
        out.fields.emplace_back("error", e.what());
      }
    } else {
      out.fields.emplace_back("status", "cancelled");
    }
    char elapsed[48];
    std::snprintf(elapsed, sizeof elapsed, " in %.0f ms", wall_ms);
    out.progress += elapsed;
    return out;
  };
  backend.summary = [&](int failures) {
    return std::pair{
        util::json::Object{{"executed", service.executions()},
                           {"cache_hits", service.cache_hits()},
                           {"coalesced", service.coalesced()}},
        std::to_string(files.size()) + " job(s): " +
            std::to_string(service.executions()) + " executed, " +
            std::to_string(service.cache_hits()) + " cache hit(s), " +
            std::to_string(service.coalesced()) + " coalesced, " +
            std::to_string(failures) + " failure(s)"};
  };
  return run_batch(files, as_json, backend);
}

// ------------------------------------------------------- spool farm modes

/// Graceful-stop flag for the long-running modes (`worker` drains the job
/// in flight; `stream` writes a final checkpoint): SIGTERM/SIGINT set it,
/// the run loop polls it.  (Lock-free store from the handler is
/// async-signal safe; everything else happens on the worker threads.)
std::atomic<bool> g_stop_requested{false};

extern "C" void stop_request_handler(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

std::string default_owner() {
#if defined(__unix__) || defined(__APPLE__)
  return "pid-" + std::to_string(static_cast<long>(::getpid()));
#else
  return "worker";
#endif
}

sim::SpoolQueue open_spool(const FlagMap& flags) {
  sim::SpoolOptions options;
  options.root = flag_or(flags, "spool", "");
  if (options.root.empty()) throw std::invalid_argument("missing --spool DIR");
  options.stale_after_ms = flag_u64(flags, "stale-ms", options.stale_after_ms);
  options.max_attempts =
      flag_size(flags, "max-attempts", options.max_attempts);
  return sim::SpoolQueue(std::move(options));
}

sim::ArtifactStoreOptions spool_store_options(const FlagMap& flags) {
  sim::ArtifactStoreOptions options;
  options.dir = flag_or(flags, "cache", "");
  if (options.dir.empty()) {
    throw std::invalid_argument(
        "missing --cache DIR (the spool farm publishes results to a shared "
        "artifact store)");
  }
  options.max_bytes = flag_u64(flags, "cache-max-bytes", 0);
  return options;
}

int cmd_worker(const FlagMap& flags) {
  sim::SpoolQueue queue = open_spool(flags);
  sim::ArtifactStore store(spool_store_options(flags));
  store.maintenance();  // GC temp orphans / trim an over-cap store upfront
  queue.maintenance();  // ...and sweep crashed writers' temps off the spool

  sim::SpoolWorkerOptions options;
  options.owner = flag_or(flags, "owner", default_owner());
  options.heartbeat_ms = flag_u64(flags, "heartbeat-ms", options.heartbeat_ms);
  options.poll_ms = flag_u64(flags, "poll-ms", options.poll_ms);
  options.idle_exit_ms = flag_u64(flags, "idle-exit-ms", 0);
  options.max_jobs = flag_size(flags, "max-jobs", 0);
  options.stop_flag = &g_stop_requested;

  std::signal(SIGTERM, stop_request_handler);
  std::signal(SIGINT, stop_request_handler);

  std::fprintf(stderr, "worker %s: spool %s, store %s\n",
               options.owner.c_str(), queue.root().c_str(),
               store.dir().c_str());
  sim::SpoolWorker worker(queue, store, options);
  const sim::SpoolWorkerStats stats = worker.run();
  std::fprintf(stderr,
               "worker %s: %" PRIu64 " completed (%" PRIu64
               " executed, %" PRIu64 " store hits), %" PRIu64
               " failed attempts, %" PRIu64 " reclaimed%s\n",
               options.owner.c_str(), stats.completed, stats.executed,
               stats.store_hits, stats.failures, stats.reclaimed,
               g_stop_requested.load(std::memory_order_relaxed) ? " (drained)"
                                                                : "");
  return 0;
}

/// batch --spool: enqueue every spec onto the farm, poll until terminal,
/// and read each result back from the shared artifact store.
int batch_via_spool(const FlagMap& flags,
                    const std::vector<std::string>& files, bool as_json) {
  sim::SpoolQueue queue = open_spool(flags);
  sim::ArtifactStore store(spool_store_options(flags));
  std::vector<std::string> ids(files.size());
  std::vector<std::string> fingerprint_texts(files.size());

  BatchBackend backend;
  backend.poll_ms = 50;
  backend.wait_ms = flag_u64(flags, "wait-ms", 0);
  // The producer doubles as a reclaimer so a farm whose only worker died
  // still makes progress once another worker (or this loop's next poller)
  // shows up.
  backend.before_poll = [&] { queue.reclaim_stale(); };
  backend.submit = [&](std::size_t i, const sim::ExperimentSpec& spec) {
    fingerprint_texts[i] = spec.fingerprint_text();
    return ids[i] = queue.enqueue(spec);
  };
  backend.poll = [&](std::size_t i) -> std::optional<BatchOutcome> {
    const sim::SpoolJobState state = queue.state(ids[i]);
    if (state == sim::SpoolJobState::kFailed) {
      return BatchOutcome{
          "FAILED",
          {{"status", "failed"},
           {"error", queue.failure_reason(ids[i]).value_or("dead-lettered")}}};
    }
    if (state != sim::SpoolJobState::kDone) return std::nullopt;
    const std::optional<std::string> artifact = store.get(ids[i]);
    const std::optional<sim::ExperimentResult> result =
        artifact.has_value()
            ? sim::decode_result(*artifact, fingerprint_texts[i])
            : std::nullopt;
    if (!result.has_value()) {
      return BatchOutcome{"done",
                          {{"status", "failed"},
                           {"error", "job done but artifact missing/corrupt"}}};
    }
    return BatchOutcome{
        "done", {{"status", "done"}, {"result", result_json(*result)}}, true};
  };
  backend.summary = [&](int failures) {
    return std::pair{util::json::Object{{"spool", queue.root()}},
                     std::to_string(files.size()) + " job(s) via spool " +
                         queue.root() + ": " + std::to_string(failures) +
                         " failure(s)"};
  };
  return run_batch(files, as_json, backend);
}

int cmd_batch(const FlagMap& flags) {
  const std::string specs = flag_or(flags, "specs", "");
  if (specs.empty()) throw std::invalid_argument("batch needs --specs");
  const bool as_json = flags.count("json") != 0;
  const std::vector<std::string> files = collect_spec_files(specs);

  if (flags.count("spool") != 0) {
    reject_flags(flags, {"jobs"}, "does not apply with --spool");
    return batch_via_spool(flags, files, as_json);
  }
  reject_flags(flags, {"wait-ms", "stale-ms", "max-attempts"}, "needs --spool");
  if (flags.count("cache") == 0) {
    reject_flags(flags, {"cache-max-bytes"}, "needs --cache");
  }
  return batch_in_process(flags, files, as_json);
}

// ----------------------------------------------------------------- stream

/// The `stream` subcommand's shared JSONL sink, file-backed (--out) or
/// stdout.  It keeps no history: every emit flushes, so the file itself
/// holds what this process wrote when a resume needs it.  Thread-safe:
/// resumes and emissions may race across array threads.
class StreamSink {
 public:
  /// Empty path streams to stdout.  A file sink opens truncating: under
  /// --resume the restored log is re-written through restore() before any
  /// new line lands, so truncation never loses checkpointed history.
  explicit StreamSink(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) open(std::ios::trunc);
  }

  void emit(const std::string& line) {
    util::MutexLock lock(mutex_);
    *out_ << line << '\n' << std::flush;
  }

  /// Splices an array's restored decision log in front of everything this
  /// process has written: a file sink is read back and rewritten
  /// atomically as the restored lines followed by its content, so the
  /// on-disk log reads exactly as one uninterrupted run.  On stdout the
  /// restored lines are simply printed (at-least-once delivery: a consumer
  /// that saw them before the crash sees them again).
  void restore(const std::vector<std::string>& restored) {
    util::MutexLock lock(mutex_);
    std::string content;
    for (const std::string& line : restored) content += line + '\n';
    if (path_.empty()) {
      *out_ << content << std::flush;
      return;
    }
    file_.close();
    content += util::read_file_if_exists(path_).value_or("");
    util::atomic_write_file(path_, content);
    open(std::ios::app);
  }

 private:
  void open(std::ios::openmode mode) {
    file_.open(path_, mode);
    if (!file_) throw std::invalid_argument("--out: cannot open " + path_);
    out_ = &file_;
  }

  util::Mutex mutex_;
  std::string path_;
  std::ofstream file_;
  std::ostream* out_ = &std::cout;
};

/// `--array NAME=SOURCE` sources: `stdin`, `tail:PATH`, `tcp:PORT`.
std::unique_ptr<sim::ByteFeed> make_stream_feed(const std::string& source,
                                                bool& stdin_taken) {
  if (source == "stdin") {
    if (stdin_taken) {
      throw std::invalid_argument("only one array can read stdin");
    }
    stdin_taken = true;
    return std::make_unique<sim::PipeFeed>();
  }
  if (source.rfind("tail:", 0) == 0) {
    return std::make_unique<sim::FileTailFeed>(source.substr(5));
  }
  if (source.rfind("tcp:", 0) == 0) {
    const std::uint64_t port = util::parse_u64(source.substr(4));
    if (port > 65535) {
      throw std::invalid_argument("tcp port out of range: " + source);
    }
    return std::make_unique<sim::TcpLineFeed>(static_cast<std::uint16_t>(port));
  }
  throw std::invalid_argument("array source '" + source +
                              "' (use stdin, tail:PATH, or tcp:PORT)");
}

int cmd_stream(const FlagMap& flags) {
  sim::StreamConfig config;
  config.scheme = sim::parse_stream_scheme(flag_or(flags, "scheme", "dnor"));
  config.control_period_s =
      flag_double(flags, "period", config.control_period_s);
  config.dt_s = flag_double(flags, "dt", 0.0);  // 0 derives from the stream
  config.num_modules = flag_size(flags, "modules", 0);  // 0 likewise
  apply_sim_flags(flags, config.sim);

  const std::string checkpoint_dir = flag_or(flags, "checkpoint", "");
  const bool resume = flags.count("resume") != 0;
  if (resume && checkpoint_dir.empty()) {
    throw std::invalid_argument("--resume needs --checkpoint DIR");
  }
  if (!checkpoint_dir.empty()) {
    std::filesystem::create_directories(checkpoint_dir);
  }

  sim::StreamServerOptions server_options;
  server_options.poll_ms = flag_u64(flags, "poll-ms", server_options.poll_ms);
  server_options.stall_timeout_ms =
      flag_u64(flags, "stall-timeout-ms", server_options.stall_timeout_ms);
  server_options.idle_exit_ms = flag_u64(flags, "idle-exit-ms", 0);

  const auto sink = std::make_shared<StreamSink>(flag_or(flags, "out", ""));
  sim::StreamServer server(
      [sink](const std::string& line) { sink->emit(line); }, server_options);

  bool stdin_taken = false;
  for (const std::string& value :
       flags.count("array") ? flags.at("array")
                            : std::vector<std::string>{"main=stdin"}) {
    const std::size_t eq = value.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("--array expects NAME=SOURCE, got '" +
                                  value + "'");
    }
    sim::StreamArrayOptions array;
    array.name = value.substr(0, eq);
    array.config = config;
    array.feed = make_stream_feed(value.substr(eq + 1), stdin_taken);
    if (const auto* tcp =
            dynamic_cast<const sim::TcpLineFeed*>(array.feed.get())) {
      std::fprintf(stderr, "array '%s': listening on 127.0.0.1:%u\n",
                   array.name.c_str(), static_cast<unsigned>(tcp->port()));
    }
    if (!checkpoint_dir.empty()) {
      array.checkpoint_path =
          (std::filesystem::path(checkpoint_dir) / (array.name + ".ckpt"))
              .string();
      array.resume = resume;
      array.checkpoint_every_steps = flag_size(flags, "checkpoint-every", 0);
      array.on_resume = [sink](const std::vector<std::string>& lines) {
        sink->restore(lines);
      };
    }
    server.add_array(std::move(array));
  }

  std::signal(SIGTERM, stop_request_handler);
  std::signal(SIGINT, stop_request_handler);
  const std::vector<sim::StreamArrayReport> reports =
      server.run(&g_stop_requested);

  int failures = 0;
  for (const sim::StreamArrayReport& report : reports) {
    if (!report.error.empty()) {
      ++failures;
      std::fprintf(stderr, "array '%s': FAILED: %s\n", report.name.c_str(),
                   report.error.c_str());
      continue;
    }
    std::fprintf(
        stderr,
        "array '%s': %zu step(s), %zu decision(s), %.1f J net, %zu gap(s), "
        "%zu out-of-order, %zu stall(s)%s%s%s\n",
        report.name.c_str(), report.result.steps.size(), report.decisions,
        report.result.energy_output_j, report.gaps, report.out_of_order,
        report.stalls, report.resumed ? ", resumed" : "",
        report.replayed != 0
            ? (", " + std::to_string(report.replayed) + " replayed").c_str()
            : "",
        report.checkpointing_disabled ? ", CHECKPOINTING DISABLED" : "");
    if (report.step_latency_ms.count() > 0) {
      std::fprintf(stderr,
                   "array '%s': step latency mean %.3f ms, max %.3f ms over "
                   "%zu step(s)\n",
                   report.name.c_str(), report.step_latency_ms.mean(),
                   report.step_latency_ms.max(),
                   report.step_latency_ms.count());
    }
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------- command table

const std::vector<Command> kCommands = {
    {"scenarios", "list the named workload scenarios", {}, cmd_scenarios},
    {"trace", "synthesise a workload; write its temperature CSV",
     {{"out", "F"}, {"scenario", "NAME"}, {"seed", "S"}, {"modules", "N"},
      {"duration", "T"}},
     cmd_trace},
    {"simulate", "replay a trace through the controllers (Table I)",
     with_sim_flags({{"trace", "F"}, {"spec", "F"}, {"scenario", "NAME"},
                     {"scheme", "dnor|inor|ehtr|baseline|all"},
                     {"cache", "DIR"}}),
     cmd_simulate},
    {"predict", "score a temperature predictor on a trace",
     {{"trace", "F"}, {"method", "mlr|bpnn|svr|holt"}, {"horizon", "H"}},
     cmd_predict},
    {"montecarlo", "DNOR-vs-baseline energy gain across drive seeds",
     {{"scenario", "NAME"}, {"seeds", "K"}, {"first-seed", "S"},
      {"modules", "N"}, {"duration", "T"}, {"threads", "W"}, {"cache", "DIR"}},
     cmd_montecarlo},
    {"batch", "run a directory of spec files, in process or via --spool",
     {{"specs", "DIR-or-FILE"}, {"json", ""}, {"jobs", "J"}, {"cache", "DIR"},
      {"cache-max-bytes", "B"}, {"spool", "DIR"}, {"wait-ms", "T"},
      {"stale-ms", "T"}, {"max-attempts", "N"}},
     cmd_batch},
    {"worker", "claim, run and publish the spool farm's jobs",
     {{"spool", "DIR"}, {"cache", "DIR"}, {"owner", "ID"}, {"poll-ms", "T"},
      {"heartbeat-ms", "T"}, {"stale-ms", "T"}, {"max-attempts", "N"},
      {"max-jobs", "N"}, {"idle-exit-ms", "T"}, {"cache-max-bytes", "B"}},
     cmd_worker},
    {"stream", "track live arrays; stream decisions out as JSONL",
     with_sim_flags({{"array", "NAME=stdin|tail:PATH|tcp:PORT", true},
                     {"scheme", "dnor|inor|ehtr|baseline"}, {"dt", "T"},
                     {"modules", "N"}, {"period", "T"}, {"out", "FILE"},
                     {"checkpoint", "DIR"}, {"resume", ""},
                     {"checkpoint-every", "N"}, {"poll-ms", "T"},
                     {"stall-timeout-ms", "T"}, {"idle-exit-ms", "T"}}),
     cmd_stream},
};

/// Prints each command's purpose and its flags, wrapped at 80 columns.
void usage() {
  std::string text = "usage:\n";
  for (const Command& command : kCommands) {
    text += "  tegrec_cli " + command.name + ": " + command.summary + '\n';
    std::string line = "    ";
    for (const Flag& flag : command.flags) {
      std::string item = " [--" + flag.name;
      if (!flag.metavar.empty()) item += " " + flag.metavar;
      item += flag.repeatable ? " ...]" : "]";
      if (line.size() + item.size() > 80) {
        text += line + '\n';
        line = "    ";
      }
      line += item;
    }
    if (!command.flags.empty()) text += line + '\n';
  }
  std::fputs(text.c_str(), stderr);
}

}  // namespace

int main(int argc, char** argv) {
  const auto command = std::find_if(
      kCommands.begin(), kCommands.end(),
      [&](const Command& c) { return argc >= 2 && c.name == argv[1]; });
  if (command == kCommands.end()) {
    usage();
    return 1;
  }
  try {
    return command->run(parse_flags(*command, argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
