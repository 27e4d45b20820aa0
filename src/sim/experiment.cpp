#include "sim/experiment.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/checkpoint.hpp"

namespace tegrec::sim {

const SimulationResult& ComparisonResult::by_name(const std::string& name) const {
  for (const SimulationResult& r : runs) {
    if (r.algorithm == name) return r;
  }
  throw std::out_of_range("ComparisonResult: no run named '" + name + "'");
}

double ComparisonResult::dnor_gain_over_baseline() const {
  const double base = by_name("Baseline").energy_output_j;
  // A zero-harvest baseline (cold-soak traces can leave the fixed grid
  // below the converter threshold) has no defined gain; 0.0 would read as
  // "no improvement" when DNOR in fact harvested everything.  NaN follows
  // the library's unmeasured-value convention (empty CSV cells, JSON null).
  if (base <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return by_name("DNOR").energy_output_j / base - 1.0;
}

double ComparisonResult::overhead_reduction_ratio() const {
  const double dnor = by_name("DNOR").switch_overhead_j;
  if (dnor <= 0.0) return 0.0;
  return by_name("EHTR").switch_overhead_j / dnor;
}

double ComparisonResult::runtime_speedup_ratio() const {
  const double dnor = by_name("DNOR").avg_runtime_ms;
  if (dnor <= 0.0) return 0.0;
  return by_name("EHTR").avg_runtime_ms / dnor;
}

namespace detail {

ComparisonResult run_comparison_direct(const thermal::TemperatureTrace& trace,
                                       const ComparisonOptions& options) {
  StreamConfig config;
  config.control_period_s = options.control_period_s;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim = options.sim;
  const std::pair<bool, StreamScheme> schemes[] = {
      {options.include_dnor, StreamScheme::kDnor},
      {options.include_inor, StreamScheme::kInor},
      {options.include_ehtr, StreamScheme::kEhtr},
      {options.include_baseline, StreamScheme::kBaseline}};
  ComparisonResult out;
  for (const auto& [included, scheme] : schemes) {
    if (!included) continue;
    config.scheme = scheme;
    const auto controller = make_stream_controller(config);
    out.runs.push_back(run_simulation(*controller, trace, options.sim));
  }
  if (out.runs.empty()) {
    throw std::invalid_argument("comparison: no schemes selected");
  }
  return out;
}

}  // namespace detail

}  // namespace tegrec::sim
