// Environment ablations beyond the paper's fixed conditions:
//   1. ambient temperature level sweep (hot summer vs winter drive),
//   2. an ambient step event mid-drive (tunnel / weather front),
//   3. value-of-prediction: DNOR with MLR vs the clairvoyant oracle
//      running the identical switch-or-hold rule on true future data.
#include <cstdio>

#include "core/dnor.hpp"
#include "core/inor.hpp"
#include "core/prescient.hpp"
#include "sim/simulator.hpp"
#include "sim/spec.hpp"
#include "thermal/trace.hpp"
#include "util/table.hpp"

namespace {

using namespace tegrec;

thermal::TraceGeneratorConfig base_config() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 50;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 100.0, 32.0, 0.0},
                     {thermal::DriveSegment::Kind::kCruise, 100.0, 70.0, 0.0}};
  config.seed = 99;
  return config;
}

}  // namespace

int main() {
  std::printf("=== Environment ablations (200 s, N=50) ===\n\n");

  // 1. Ambient level sweep.
  {
    std::printf("-- ablation 1: ambient temperature level --\n");
    util::TextTable table({"ambient (C)", "DNOR (J)", "Baseline (J)", "gain %"});
    for (double ambient : {5.0, 15.0, 25.0, 35.0}) {
      sim::ExperimentSpec spec;
      spec.kind = sim::ExperimentKind::kComparison;
      spec.trace.generator = base_config();
      spec.trace.generator.ambient.base_c = ambient;
      spec.trace.generator.engine.ambient_c = ambient;
      spec.comparison.include_inor = false;
      spec.comparison.include_ehtr = false;
      const auto res = sim::run_experiment(spec).comparison;
      table.begin_row()
          .add(ambient, 0)
          .add(res.by_name("DNOR").energy_output_j, 1)
          .add(res.by_name("Baseline").energy_output_j, 1)
          .add(100.0 * res.dnor_gain_over_baseline(), 1);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("shape check: colder ambient -> larger dT -> more energy for\n"
                "both schemes; the reconfiguration gain persists everywhere.\n\n");
  }

  // 2. Ambient step event.
  {
    std::printf("-- ablation 2: 10 C ambient step at t=100 s (weather front) --\n");
    thermal::TraceGeneratorConfig config = base_config();
    config.ambient.steps = {{100.0, 10.0}};
    const auto trace = thermal::generate_trace(config);
    const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
    const power::ConverterParams charger;
    core::DnorReconfigurer dnor(device, charger);
    const auto res = sim::run_simulation(dnor, trace);
    std::size_t switches_before = 0, switches_after = 0;
    for (const auto& s : res.steps) {
      if (s.switch_actuations > 0) {
        (s.time_s < 100.0 ? switches_before : switches_after)++;
      }
    }
    std::printf("DNOR switches before/after the front: %zu / %zu\n",
                switches_before, switches_after);
    std::printf("energy %.1f J, overhead %.2f J\n\n", res.energy_output_j,
                res.switch_overhead_j);
  }

  // 3. Value of prediction: MLR-DNOR vs clairvoyant oracle vs INOR.
  {
    std::printf("-- ablation 3: value of prediction (oracle upper bound) --\n");
    const auto trace = thermal::generate_trace(base_config());
    const teg::DeviceParams device = teg::tgm_199_1_4_0_8();
    const power::ConverterParams charger;

    core::DnorReconfigurer dnor(device, charger);
    core::PrescientReconfigurer oracle(device, charger, trace);
    core::InorReconfigurer inor(device, charger);

    util::TextTable table({"controller", "energy (J)", "overhead (J)", "switches"});
    for (auto* rec : std::initializer_list<core::Reconfigurer*>{
             &oracle, &dnor, &inor}) {
      const auto res = sim::run_simulation(*rec, trace);
      table.begin_row()
          .add(res.algorithm)
          .add(res.energy_output_j, 1)
          .add(res.switch_overhead_j, 2)
          .add(static_cast<long long>(res.num_switch_events));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Reading: the MLR-DNOR gap to the oracle is the total cost of\n"
                "imperfect prediction; the gap from INOR to either is the value\n"
                "of the switch-or-hold rule itself.\n");
  }
  return 0;
}
