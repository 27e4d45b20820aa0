#include <gtest/gtest.h>

#include <limits>

#include "sim/montecarlo.hpp"
#include "sim/spec.hpp"
#include "sim/sweep.hpp"

namespace tegrec::sim {
namespace {

thermal::TraceGeneratorConfig tiny_config() {
  thermal::TraceGeneratorConfig config;
  // 24 modules: small enough for speed, large enough that the square-grid
  // baseline's string voltage clears the converter's input floor.
  config.layout.num_modules = 24;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 25.0, 30.0, 0.0}};
  return config;
}

ComparisonOptions fast_comparison() {
  ComparisonOptions options;
  options.include_inor = false;
  options.include_ehtr = false;
  return options;
}

ExperimentSpec montecarlo_spec(std::size_t num_seeds) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kMonteCarlo;
  spec.trace.generator = tiny_config();
  spec.comparison = fast_comparison();
  spec.mc_num_seeds = num_seeds;
  return spec;
}

ExperimentSpec sweep_spec(const std::string& parameter,
                          const std::vector<double>& values) {
  ExperimentSpec spec;
  spec.kind = ExperimentKind::kSweep;
  spec.trace.generator = tiny_config();
  spec.comparison = fast_comparison();
  spec.sweep_parameter_name = parameter;
  spec.sweep_values = values;
  return spec;
}

TEST(MonteCarlo, AggregatesAcrossSeeds) {
  ExperimentSpec spec = montecarlo_spec(4);
  spec.mc_first_seed = 10;
  const MonteCarloSummary summary = run_experiment(spec).monte_carlo;
  ASSERT_EQ(summary.samples.size(), 4u);
  EXPECT_EQ(summary.samples.front().seed, 10u);
  EXPECT_EQ(summary.samples.back().seed, 13u);
  EXPECT_EQ(summary.gain.count(), 4u);
  // The reconfiguration gain must be positive on average across drives.
  EXPECT_GT(summary.gain.mean(), 0.0);
  EXPECT_GT(summary.dnor_energy_j.min(), 0.0);
}

TEST(MonteCarlo, NanGainSampleLeftOutOfAggregate) {
  // A zero-harvest baseline makes a seed's gain NaN (undefined, not 0).
  // That sample must not poison the statistics of every valid seed — it
  // simply reduces gain.count().  Energies always aggregate.
  MonteCarloSummary summary;
  summary.samples.resize(3);
  summary.samples[0].gain = 0.5;
  summary.samples[0].dnor_energy_j = 10.0;
  summary.samples[1].gain = std::numeric_limits<double>::quiet_NaN();
  summary.samples[1].dnor_energy_j = 11.0;
  summary.samples[2].gain = 0.7;
  summary.samples[2].dnor_energy_j = 12.0;
  detail::fold_monte_carlo_stats(summary);
  EXPECT_EQ(summary.gain.count(), 2u);
  EXPECT_DOUBLE_EQ(summary.gain.mean(), 0.6);
  EXPECT_EQ(summary.dnor_energy_j.count(), 3u);
}

TEST(MonteCarlo, DistinctSeedsGiveDistinctSamples) {
  const MonteCarloSummary summary =
      run_experiment(montecarlo_spec(3)).monte_carlo;
  EXPECT_NE(summary.samples[0].dnor_energy_j, summary.samples[1].dnor_energy_j);
  EXPECT_GT(summary.dnor_energy_j.stddev(), 0.0);
}

TEST(MonteCarlo, Validation) {
  ExperimentSpec spec = montecarlo_spec(0);
  spec.comparison = ComparisonOptions();
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
  spec.mc_num_seeds = 2;
  spec.comparison.include_baseline = false;
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
}

TEST(Sweep, CouplingSweepMonotoneEnergy) {
  const auto points =
      run_experiment(sweep_spec("surface_coupling", {0.55, 0.7, 0.85})).sweep;
  ASSERT_EQ(points.size(), 3u);
  // Better thermal coupling -> more dT -> more energy for both schemes.
  EXPECT_LT(points[0].dnor_energy_j, points[1].dnor_energy_j);
  EXPECT_LT(points[1].dnor_energy_j, points[2].dnor_energy_j);
  for (const auto& p : points) {
    EXPECT_GT(p.gain, 0.0);
    EXPECT_GT(p.dnor_ratio_to_ideal, 0.5);
  }
}

TEST(Sweep, Validation) {
  EXPECT_THROW(run_experiment(sweep_spec("surface_coupling", {})),
               std::invalid_argument);
  EXPECT_THROW(run_experiment(sweep_spec("", {1.0})), std::invalid_argument);
  ExperimentSpec no_base = sweep_spec("surface_coupling", {1.0});
  no_base.comparison.include_baseline = false;
  EXPECT_THROW(run_experiment(no_base), std::invalid_argument);
}

TEST(Sweep, CsvExport) {
  const auto points =
      run_experiment(sweep_spec("surface_coupling", {0.5, 0.7})).sweep;
  const util::CsvTable table = sweep_to_csv("coupling", points);
  EXPECT_EQ(table.header.front(), "coupling");
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[0][0], 0.5);
  EXPECT_NEAR(table.rows[1][3], 100.0 * points[1].gain, 1e-9);
}

}  // namespace
}  // namespace tegrec::sim
