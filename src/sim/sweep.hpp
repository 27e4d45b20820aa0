// Scalar parameter sweeps over the end-to-end comparison.
//
// Answers "how does the reconfiguration gain move with X?" for any scalar
// X of the trace-generator configuration (surface coupling, heat-transfer
// coefficient, module count, ambient...).  A kSweep ExperimentSpec names a
// registered parameter (sweep_mutator) and its values; the sweep returns
// one point per value with the headline quantities, ready for CSV/plotting.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "thermal/trace.hpp"
#include "util/csv.hpp"

namespace tegrec::sim {

struct ExperimentSpec;

struct SweepPoint {
  double value = 0.0;
  double dnor_energy_j = 0.0;
  double baseline_energy_j = 0.0;
  double gain = 0.0;  ///< DNOR/baseline - 1
  double dnor_ratio_to_ideal = 0.0;
};

using ConfigMutator =
    std::function<void(thermal::TraceGeneratorConfig&, double value)>;

/// Looks up a registered, content-addressable sweep parameter by name — the
/// vocabulary ExperimentSpec sweep files use (`sweep.parameter = <name>`).
/// Throws std::invalid_argument for unknown names, listing what exists.
ConfigMutator sweep_mutator(const std::string& name);

/// Names accepted by sweep_mutator, sorted.
std::vector<std::string> sweep_parameter_names();

/// Packs sweep points into a CSV table (columns: value, dnor_j, baseline_j,
/// gain_percent, dnor_ratio).  `value_name` becomes the first header.
util::CsvTable sweep_to_csv(const std::string& value_name,
                            const std::vector<SweepPoint>& points);

namespace detail {

/// The sweep engine behind run_experiment for a kSweep spec, uncached and
/// synchronous.  Runs the DNOR-vs-baseline comparison for every value in
/// spec.sweep_values, applying the registered spec.sweep_parameter_name
/// mutator to a copy of the spec's generated trace config each time.
/// Points are independent simulations evaluated across
/// spec.sweep_num_threads workers (0 = one per hardware thread, 1 =
/// serial); each point writes only its own output slot, so the result is
/// bit-identical for any thread count.  Per-point comparisons use
/// run_comparison_direct.
std::vector<SweepPoint> sweep_direct(const ExperimentSpec& spec);

}  // namespace detail

}  // namespace tegrec::sim
