// Monte-Carlo aggregation of the scheme comparison over trace seeds.
//
// One synthetic drive is one sample; the paper's headline numbers ("+30%",
// "~100x") deserve confidence intervals over drives.  This module re-runs
// the standard comparison across seeds and aggregates the headline metrics
// with RunningStats (mean / stddev / extrema).
#pragma once

#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace tegrec::sim {

struct ExperimentSpec;

/// Per-seed record of the headline metrics.
struct MonteCarloSample {
  std::uint64_t seed = 0;
  double dnor_energy_j = 0.0;
  double baseline_energy_j = 0.0;
  double gain = 0.0;              ///< DNOR/baseline - 1
  double dnor_overhead_j = 0.0;
  double dnor_switches = 0.0;
};

struct MonteCarloSummary {
  std::vector<MonteCarloSample> samples;
  util::RunningStats gain;        ///< distribution of the "+30%" number
  util::RunningStats dnor_energy_j;
  util::RunningStats dnor_overhead_j;
  util::RunningStats dnor_switches;
};

namespace detail {

/// The Monte-Carlo engine behind run_experiment for a kMonteCarlo spec,
/// uncached and synchronous.  Runs the comparison for seeds
/// spec.mc_first_seed .. + spec.mc_num_seeds - 1 of the spec's generated
/// trace config, across spec.mc_num_threads workers (0 = one per hardware
/// thread, 1 = serial).  Every seed owns a deterministic RNG stream and a
/// private output slot, and the statistics are folded in seed order
/// afterwards, so the result is bit-identical for any thread count.
/// Requires a generated source and DNOR plus the baseline in
/// spec.comparison; per-seed comparisons use run_comparison_direct.
MonteCarloSummary run_monte_carlo_direct(const ExperimentSpec& spec);

/// Folds the summary statistics from `samples` in seed order — shared by
/// the engine and the disk-cache loader so both produce identical stats.
void fold_monte_carlo_stats(MonteCarloSummary& summary);

}  // namespace detail

}  // namespace tegrec::sim
