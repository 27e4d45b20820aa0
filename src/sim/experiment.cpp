#include "sim/experiment.hpp"

#include <limits>
#include <stdexcept>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/fixed_baseline.hpp"
#include "core/inor.hpp"

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
  const teg::DeviceParams device = options.sim.device;
  const power::ConverterParams charger = options.sim.converter;

  ComparisonResult out;
  if (options.include_dnor) {
    core::DnorParams p;
    p.control_period_s = options.control_period_s;
    core::DnorReconfigurer dnor(device, charger, p);
    out.runs.push_back(run_simulation(dnor, trace, options.sim));
  }
  if (options.include_inor) {
    core::InorReconfigurer inor(device, charger, options.control_period_s);
    out.runs.push_back(run_simulation(inor, trace, options.sim));
  }
  if (options.include_ehtr) {
    core::EhtrReconfigurer ehtr(device, charger, options.control_period_s,
                                options.sim.num_threads,
                                options.sim.ehtr_max_groups);
    out.runs.push_back(run_simulation(ehtr, trace, options.sim));
  }
  if (options.include_baseline) {
    auto baseline =
        core::FixedBaselineReconfigurer::square_grid(trace.num_modules());
    out.runs.push_back(run_simulation(baseline, trace, options.sim));
  }
  if (out.runs.empty()) {
    throw std::invalid_argument("comparison: no schemes selected");
  }
  return out;
}

}  // namespace detail

}  // namespace tegrec::sim
