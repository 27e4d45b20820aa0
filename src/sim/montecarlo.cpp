#include "sim/montecarlo.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/spec.hpp"
#include "util/parallel.hpp"

namespace tegrec::sim {

namespace detail {

void fold_monte_carlo_stats(MonteCarloSummary& summary) {
  // Fold the running statistics serially in seed order: floating-point
  // accumulation order is part of the bit-identical guarantee.
  for (const MonteCarloSample& sample : summary.samples) {
    // A zero-harvest baseline makes that seed's gain NaN (undefined, not
    // zero — see ComparisonResult::dnor_gain_over_baseline).  Keep the
    // sample row honest but leave it out of the aggregate, so one
    // degenerate drive reduces gain.count() instead of poisoning the
    // statistics of every valid seed.  The disk-cache decoder re-folds
    // through this same function, so cached summaries agree.
    if (!std::isnan(sample.gain)) summary.gain.add(sample.gain);
    summary.dnor_energy_j.add(sample.dnor_energy_j);
    summary.dnor_overhead_j.add(sample.dnor_overhead_j);
    summary.dnor_switches.add(sample.dnor_switches);
  }
}

MonteCarloSummary run_monte_carlo_direct(const ExperimentSpec& spec) {
  if (spec.trace.kind != TraceSource::Kind::kGenerated) {
    throw std::invalid_argument(
        "monte carlo: needs a generated trace source (the engine re-seeds it "
        "per sample)");
  }
  if (spec.mc_num_seeds == 0) {
    throw std::invalid_argument("monte carlo: zero seeds");
  }
  if (!spec.comparison.include_dnor || !spec.comparison.include_baseline) {
    throw std::invalid_argument(
        "monte carlo: DNOR and baseline must both be enabled");
  }
  MonteCarloSummary summary;
  summary.samples.resize(spec.mc_num_seeds);

  // Each seed is an independent drive with its own RNG stream; sample k
  // writes only slot k, so any thread count produces the same samples.
  util::parallel_for(
      spec.mc_num_seeds, spec.mc_num_threads, [&](std::size_t k) {
        thermal::TraceGeneratorConfig config = spec.trace.generator;
        config.seed = spec.mc_first_seed + k;
        const thermal::TemperatureTrace trace = thermal::generate_trace(config);
        const ComparisonResult res =
            run_comparison_direct(trace, spec.comparison);

        MonteCarloSample& sample = summary.samples[k];
        sample.seed = config.seed;
        sample.dnor_energy_j = res.by_name("DNOR").energy_output_j;
        sample.baseline_energy_j = res.by_name("Baseline").energy_output_j;
        sample.gain = res.dnor_gain_over_baseline();
        sample.dnor_overhead_j = res.by_name("DNOR").switch_overhead_j;
        sample.dnor_switches =
            static_cast<double>(res.by_name("DNOR").num_switch_events);
      });

  fold_monte_carlo_stats(summary);
  return summary;
}

}  // namespace detail

}  // namespace tegrec::sim
