// Batch workloads: the four-scheme comparison study of one scenario,
// submitted to a fresh ExperimentService, the way `tegrec_cli` runs a
// study spec file.
//
// Each study of a run gets its own trace seed and its own service (with
// the default in-memory cache and no cache directory), so results never
// pile up in a cache across studies and the process's memory does not
// depend on how many studies fit into the run.  Every study must execute,
// and the service's counters prove it did (1 execution, 0 cache hits).

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/service.hpp"
#include "sim/spec.hpp"
#include "sim/stepper.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "util/runtime_clock.hpp"
#include "workload.hpp"

namespace perfbench {

namespace sim = tegrec::sim;
namespace thermal = tegrec::thermal;

namespace {

struct BatchWorkload {
  const char* name;
  const char* scenario;
};

// batch_boiler: the roadmap's headline run; a slowly drifting flue field
// over 400 modules, where EHTR's partition DP and scoring dominate.
// batch_kiln: the same layers under a field that swings every 180 s.
constexpr BatchWorkload kWorkloads[] = {
    {"batch_boiler", "boiler_economiser"},
    {"batch_kiln", "kiln_batch"},
};

constexpr sim::StreamScheme kSchemes[] = {
    sim::StreamScheme::kDnor, sim::StreamScheme::kInor, sim::StreamScheme::kEhtr,
    sim::StreamScheme::kBaseline};  // ComparisonResult's run order

constexpr std::size_t kMinStudies = 3;
constexpr std::size_t kSetupsPerStudy = 4;
constexpr double kGiveUpFactor = 3.0;
// Untraced/traced pass pairs behind trace.overhead_ratio.
constexpr std::size_t kOverheadPairs = 3;

const BatchWorkload& find_workload(const std::string& name) {
  for (const BatchWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown batch workload " + name);
}

/// Trace seed of study `rep` of a run: splitmix64 of (seed, rep), kept to
/// 31 bits so the spec text stays short.
std::uint64_t trace_seed(std::uint64_t seed, std::size_t rep) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + rep + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffULL;
}

/// A study spec as a user writes it: the scenario and a seed, every other
/// key at its default.
std::string spec_text(const BatchWorkload& w, std::uint64_t seed, std::size_t rep) {
  return "kind = comparison\ntrace.scenario = " + std::string(w.scenario) +
         "\ntrace.gen.seed = " + std::to_string(trace_seed(seed, rep)) + "\n";
}

sim::StreamConfig scheme_config(sim::StreamScheme scheme, const sim::ExperimentSpec& spec,
                                const thermal::TemperatureTrace& trace) {
  sim::StreamConfig config;
  config.scheme = scheme;
  config.control_period_s = spec.comparison.control_period_s;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim = spec.comparison.sim;
  return config;
}

/// Points the spec at an already materialised trace.
void inline_trace(sim::ExperimentSpec& spec,
                  std::shared_ptr<const thermal::TemperatureTrace> trace) {
  spec.trace.kind = sim::TraceSource::Kind::kInline;
  spec.trace.scenario_name.clear();  // provenance of generated sources only
  spec.trace.inline_trace = std::move(trace);
}

struct Prepared {
  sim::ExperimentSpec spec;
  std::shared_ptr<const thermal::TemperatureTrace> trace;
};

/// Set-up of one study (after its service is built): parse the spec,
/// materialise its trace and build the four controllers.  The spec comes back with the trace inlined, so
/// the measured study does not generate it a second time.
Prepared prepare(const BatchWorkload& w, std::uint64_t seed, std::size_t rep) {
  Prepared p;
  p.spec = sim::ExperimentSpec::from_text(spec_text(w, seed, rep));
  p.trace = sim::materialize_trace(p.spec.trace);
  for (sim::StreamScheme scheme : kSchemes) {
    (void)sim::make_stream_controller(scheme_config(scheme, p.spec, *p.trace));
  }
  inline_trace(p.spec, p.trace);
  return p;
}

std::size_t total_steps(const sim::ComparisonResult& result) {
  std::size_t steps = 0;
  for (const auto& run : result.runs) steps += run.steps.size();
  return steps;
}

double harvest_ratio(const sim::ComparisonResult& result) {
  double net = 0.0;
  double ideal = 0.0;
  for (const auto& run : result.runs) {
    net += run.energy_output_j;
    ideal += run.ideal_energy_j;
  }
  return ideal > 0.0 ? net / ideal : 0.0;
}

/// Shape and physics sanity of one study's result.
void validate(const sim::ComparisonResult& result,
              const thermal::TemperatureTrace& trace, Gate& gate) {
  const char* names[] = {"DNOR", "INOR", "EHTR", "Baseline"};
  bool ok = result.runs.size() == std::size(names);
  for (std::size_t i = 0; ok && i < result.runs.size(); ++i) {
    const sim::SimulationResult& run = result.runs[i];
    ok = run.algorithm == names[i] && run.steps.size() == trace.num_steps() &&
         std::isfinite(run.energy_output_j) && run.energy_output_j > 0.0 &&
         run.energy_output_j <= run.ideal_energy_j;
  }
  gate.check(ok, "a study result has the wrong shape or impossible energies");
}

/// A service as a one-study process builds it: one worker, no cache dir.
std::unique_ptr<sim::ExperimentService> fresh_service() {
  sim::ServiceOptions options;
  options.num_workers = 1;
  return std::make_unique<sim::ExperimentService>(options);
}

Outcome timing_run(const BatchWorkload& w, const RunArgs& args) {
  Outcome out;
  std::vector<double> setup_s;
  std::vector<double> study_rates;  // control periods per second, per study
  setup_s.reserve(1024);  // sized up front: nothing grows while memory is measured
  study_rates.reserve(1024);
  double measured_s = 0.0;
  std::size_t steps = 0;
  std::size_t studies = 0;
  std::size_t executions = 0;
  std::size_t cache_hits = 0;
  double harvest = 0.0;
  std::size_t rep = 0;
  const bool peak_reset = reset_peak_rss();
  const double rss_baseline_mb = current_rss_mb();
  const tegrec::util::MonotonicTimer wall;
  for (;; ++rep) {
    // The study's set-up, also made and dropped a few times beforehand:
    // more samples steady the set-up median, and each costs a few percent
    // of a study.
    for (std::size_t spare = 1; spare < kSetupsPerStudy; ++spare) {
      const tegrec::util::MonotonicTimer timer;
      const auto service = fresh_service();
      (void)prepare(w, args.seed, rep);
      setup_s.push_back(timer.seconds());
    }
    tegrec::util::MonotonicTimer timer;
    const auto service = fresh_service();
    const Prepared p = prepare(w, args.seed, rep);
    setup_s.push_back(timer.seconds());

    ++out.attempted;
    std::shared_ptr<const sim::ExperimentResult> result;
    timer.restart();
    try {
      result = service->submit(p.spec).wait();
    } catch (const std::exception& e) {
      ++out.failed;
      out.notes.push_back(std::string("study failed: ") + e.what());
    }
    const double study_s = timer.seconds();
    executions += service->executions();
    cache_hits += service->cache_hits();
    measured_s += study_s;
    if (result) {
      ++studies;
      steps += total_steps(result->comparison);
      study_rates.push_back(static_cast<double>(total_steps(result->comparison)) / study_s);
      validate(result->comparison, *p.trace, out.gate);
      if (rep == 0) {
        harvest = harvest_ratio(result->comparison);
        out.gate.check_digest(args.digests, w.name, args.seed,
                              result_digest(result->comparison.runs));
      }
    }
    if (measured_s >= args.seconds && rep + 1 >= kMinStudies) break;
    if (wall.seconds() >= kGiveUpFactor * args.seconds) break;  // studies failing fast
  }
  out.gate.check(executions == out.attempted && cache_hits == 0,
                 "a measured study came from the result cache instead of executing");
  out.gate.check(studies > 0, "no study completed");

  out.metrics = {
      {"steps_per_s", study_rates.empty() ? 0.0 : median(study_rates), "steps/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb() - rss_baseline_mb, "MB"},
      {"harvest_ratio", harvest, "fraction"},
  };
  out.notes.push_back("studies: " + std::to_string(studies) + " (" +
                      std::to_string(steps) + " control periods over 4 schemes)");
  if (!study_rates.empty()) {
    const auto q = quartiles(study_rates);
    out.notes.push_back("steps/s per study: q1 " + std::to_string(q[0]) + ", median " +
                        std::to_string(q[1]) + ", q3 " + std::to_string(q[2]));
  }
  out.notes.push_back("setup samples: " + std::to_string(setup_s.size()));
  out.notes.push_back("RSS baseline: " + std::to_string(rss_baseline_mb) +
                      " MB (peak_rss_mb is the growth above it)");
  if (!peak_reset) out.notes.push_back("peak RSS covers the whole process");
  out.notes.push_back("sim.service: executions " + std::to_string(executions) +
                      ", cache hits " + std::to_string(cache_hits));
  return out;
}

/// One traced pass: run_simulation's loop, driven step by step through
/// SimStepper, per scheme, each checked against the untraced study.  A
/// `full` pass also replays each controller's calls into the layers.
/// Returns the live loops' seconds.
double traced_pass(const sim::ExperimentSpec& spec, const thermal::TemperatureTrace& trace,
                   const sim::ComparisonResult& reference, bool full,
                   SpanRecorder& recorder, Gate& gate) {
  double live_s = 0.0;
  for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
    const auto run_id = static_cast<std::int32_t>(s);
    const sim::StreamConfig config = scheme_config(kSchemes[s], spec, trace);
    const auto controller = sim::make_stream_controller(config);
    TracingReconfigurer traced(*controller, recorder, run_id);
    sim::SimulationResult result;
    {
      const tegrec::util::MonotonicTimer timer;
      const ScopedSpan run(recorder, span::kRun, run_id);
      sim::SimStepper stepper(traced, trace.dt_s(), trace.num_modules(),
                              spec.comparison.sim);
      sim::TraceSample sample;
      for (std::size_t t = 0; t < trace.num_steps(); ++t) {
        sample.time_s = static_cast<double>(t) * trace.dt_s();
        sample.module_temps_c = trace.step_temperatures(t);
        sample.ambient_c = trace.ambient_c(t);
        const ScopedSpan step(recorder, span::kStep, run_id);
        stepper.step(sample);
      }
      result = stepper.result();
      live_s += timer.seconds();
    }
    gate.check(s < reference.runs.size() && same_decisions(result, reference.runs[s]),
               "traced " + result.algorithm + " run differs from the untraced study");
    if (full) {
      replay_layers(result.algorithm, traced.calls(), spec.comparison.sim,
                    trace.num_modules(), run_id, recorder, gate);
    }
  }
  return live_s;
}

Outcome traced_run(const BatchWorkload& w, const RunArgs& args) {
  Outcome out;
  const tegrec::util::MonotonicTimer epoch;
  SpanRecorder recorder(epoch);

  sim::ExperimentSpec spec = sim::ExperimentSpec::from_text(spec_text(w, args.seed, 0));
  std::shared_ptr<const thermal::TemperatureTrace> trace;
  {
    const ScopedSpan span(recorder, span::kTrace, -1);
    trace = sim::materialize_trace(spec.trace);
  }
  recorder.count("thermal.samples", static_cast<double>(trace->num_steps()));
  inline_trace(spec, trace);

  // Untraced studies, exactly as the timing run measures them, alternate
  // with traced passes; the overhead is the median of the pairs' rate
  // ratios, and the order within a pair alternates so a drift in host
  // speed favours neither.  The first traced pass is the one whose spans
  // are reported.
  std::shared_ptr<const sim::ExperimentResult> reference;
  std::size_t executions = 0, cache_hits = 0;
  std::vector<double> ratios;
  for (std::size_t pair = 0; pair < kOverheadPairs; ++pair) {
    double untraced_s = 0.0, traced_s = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (pair % 2 == 0)) {
        const auto service = fresh_service();
        ++out.attempted;
        const tegrec::util::MonotonicTimer timer;
        const auto result = service->submit(spec).wait();
        untraced_s = timer.seconds();
        executions += service->executions();
        cache_hits += service->cache_hits();
        validate(result->comparison, *trace, out.gate);
        if (reference == nullptr) {
          reference = result;
          out.gate.check_digest(args.digests, w.name, args.seed,
                                result_digest(reference->comparison.runs));
        } else {
          for (std::size_t s = 0; s < result->comparison.runs.size(); ++s) {
            out.gate.check(s < reference->comparison.runs.size() &&
                               same_decisions(result->comparison.runs[s],
                                              reference->comparison.runs[s]),
                           "two untraced studies of the same spec differ");
          }
        }
        continue;
      }
      if (pair == 0) {
        traced_s = traced_pass(spec, *trace, reference->comparison, true, recorder,
                               out.gate);
      } else {
        SpanRecorder scratch(epoch);  // only its timing is kept
        traced_s = traced_pass(spec, *trace, reference->comparison, false, scratch,
                               out.gate);
      }
    }
    ratios.push_back(untraced_s / traced_s);  // same steps, so the rate ratio
  }
  recorder.count("sim.service.executions", static_cast<double>(executions));
  recorder.count("sim.service.cache_hits", static_cast<double>(cache_hits));
  out.gate.check(executions == out.attempted && cache_hits == 0,
                 "an untraced study came from the result cache instead of executing");
  out.metrics = layer_metrics(recorder, median(ratios));
  write_spans_csv(args.out_dir + "/spans-" + w.name + ".csv", recorder.spans());
  return out;
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  for (const BatchWorkload& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

std::string batch_digest(const std::string& workload, std::uint64_t seed) {
  const sim::ExperimentSpec spec =
      sim::ExperimentSpec::from_text(spec_text(find_workload(workload), seed, 0));
  return result_digest(sim::run_experiment(spec).comparison.runs);
}

Outcome run_batch(const RunArgs& args) {
  const BatchWorkload& w = find_workload(args.workload);
  return args.trace ? traced_run(w, args) : timing_run(w, args);
}

}  // namespace perfbench
