#include "sim/sweep.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "sim/spec.hpp"
#include "util/parallel.hpp"

namespace tegrec::sim {

namespace {

// Registered sweep parameters: every entry is a pure scalar write into the
// trace-generator config, so a spec naming one is fully content-addressed.
const std::map<std::string, ConfigMutator>& mutator_registry() {
  static const std::map<std::string, ConfigMutator> registry = {
      {"num_modules",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.layout.num_modules = static_cast<std::size_t>(v);
       }},
      {"surface_coupling",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.layout.surface_coupling = v;
       }},
      {"exchanger_k_per_length",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.layout.exchanger.k_per_length_w_mk = v;
       }},
      {"ambient_base_c",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.ambient.base_c = v;
         c.engine.ambient_c = v;
       }},
      {"thermal_mass_j_k",
       [](thermal::TraceGeneratorConfig& c, double v) {
         c.engine.thermal_mass_j_k = v;
       }},
      {"duration_scale",
       [](thermal::TraceGeneratorConfig& c, double v) {
         for (auto& segment : c.segments) segment.duration_s *= v;
       }},
  };
  return registry;
}

}  // namespace

ConfigMutator sweep_mutator(const std::string& name) {
  const auto& registry = mutator_registry();
  const auto it = registry.find(name);
  if (it != registry.end()) return it->second;
  std::string known;
  for (const std::string& key : sweep_parameter_names()) {
    if (!known.empty()) known += ", ";
    known += key;
  }
  throw std::invalid_argument("sweep_mutator: unknown parameter '" + name +
                              "' (registered: " + known + ")");
}

std::vector<std::string> sweep_parameter_names() {
  std::vector<std::string> names;
  for (const auto& [key, fn] : mutator_registry()) {
    (void)fn;
    names.push_back(key);
  }
  return names;  // std::map iterates sorted
}

namespace detail {

std::vector<SweepPoint> sweep_direct(const ExperimentSpec& spec) {
  if (spec.trace.kind != TraceSource::Kind::kGenerated) {
    throw std::invalid_argument(
        "sweep: needs a generated trace source (the swept parameter mutates "
        "the generator config)");
  }
  const ConfigMutator mutate = sweep_mutator(spec.sweep_parameter_name);
  const std::vector<double>& values = spec.sweep_values;
  const ComparisonOptions& comparison = spec.comparison;
  if (values.empty()) throw std::invalid_argument("sweep: no values");
  if (!comparison.include_dnor || !comparison.include_baseline) {
    throw std::invalid_argument(
        "sweep: DNOR and baseline must both be enabled");
  }
  std::vector<SweepPoint> out(values.size());
  util::parallel_for(values.size(), spec.sweep_num_threads, [&](std::size_t i) {
    thermal::TraceGeneratorConfig config = spec.trace.generator;
    mutate(config, values[i]);
    const thermal::TemperatureTrace trace = thermal::generate_trace(config);
    const ComparisonResult res = run_comparison_direct(trace, comparison);

    SweepPoint& point = out[i];
    point.value = values[i];
    point.dnor_energy_j = res.by_name("DNOR").energy_output_j;
    point.baseline_energy_j = res.by_name("Baseline").energy_output_j;
    point.gain = res.dnor_gain_over_baseline();
    point.dnor_ratio_to_ideal = res.by_name("DNOR").ratio_to_ideal();
  });
  return out;
}

}  // namespace detail

}  // namespace tegrec::sim
