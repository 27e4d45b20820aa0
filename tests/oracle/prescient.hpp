// Prescient (oracle) reconfiguration controller — an upper bound for DNOR.
//
// DNOR's switch-or-hold rule depends on forecast quality; this controller
// runs the identical rule but reads the *actual* future temperatures from
// the trace instead of predicting them.  The energy gap between
// PrescientReconfigurer and DNOR-with-MLR is exactly the cost of imperfect
// prediction, and the gap to INOR is the value of the switch-or-hold rule
// itself.  Simulation-only by construction (no real controller can see the
// future), so it is a test oracle: the ablation benches and tests treat it
// as just another core::Reconfigurer.
#pragma once

#include <utility>

#include "core/algorithm_cost.hpp"
#include "core/inor.hpp"
#include "core/reconfigurer.hpp"
#include "switchfab/overhead.hpp"
#include "thermal/trace.hpp"

namespace tegrec::oracle {

/// Compute weight of the oracle lookup on core::AlgorithmCost's scale: the
/// same single-pass switch-or-hold rule as DNOR.
inline core::AlgorithmCost prescient_cost() { return {1.0}; }

struct PrescientParams {
  double control_period_s = 0.5;
  double tp_s = 2.0;  ///< lookahead window, matching DNOR's horizon
  core::InorOptions inor;
  switchfab::OverheadParams overhead;
};

class PrescientReconfigurer final : public core::Reconfigurer {
 public:
  /// `trace` must be the exact trace the simulator replays (the oracle
  /// looks up future steps by time).
  PrescientReconfigurer(const teg::DeviceParams& device,
                        const power::ConverterParams& converter,
                        const thermal::TemperatureTrace& trace,
                        const PrescientParams& params = {});

  std::string name() const override { return "Oracle"; }
  core::UpdateResult update(double time_s,
                            const std::vector<double>& delta_t_k,
                            double ambient_c) override;
  void reset() override;
  core::AlgorithmCost algorithm_cost() const override {
    return prescient_cost();
  }

  std::size_t switches_taken() const { return switches_; }

 private:
  teg::DeviceParams device_;
  power::Converter converter_;
  const thermal::TemperatureTrace* trace_;
  PrescientParams params_;

  double next_decision_time_s_ = 0.0;
  bool has_config_ = false;
  teg::ArrayConfig current_;
  std::size_t switches_ = 0;

  /// True output energies of the hold/switch candidates over the lookahead
  /// window, sharing one cached ArrayEvaluator per trace step.
  std::pair<double, double> future_energies_j(const teg::ArrayConfig& c_old,
                                              const teg::ArrayConfig& c_new,
                                              double from_time_s) const;
};

}  // namespace tegrec::oracle
