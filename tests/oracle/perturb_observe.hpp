// Fixed-step perturb-and-observe MPPT (Femia et al. [10]), the charger
// controller the paper describes.  The simulator models a settled tracker
// (power::optimal_operating_point); tests/test_mppt.cpp and
// tests/test_robustness.cpp show this controller converges to within a
// few percent of it, which is the evidence for that model.
#pragma once

#include <cstddef>

#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "teg/string.hpp"

namespace tegrec::oracle {

class PerturbObserveTracker {
 public:
  /// `step_a` is the current perturbation per iteration.
  explicit PerturbObserveTracker(double step_a = 0.02);

  /// Re-seeds the tracker (e.g. after a reconfiguration) at a current.
  void reset(double current_a);

  /// One P&O iteration against the live string; returns the new point.
  power::OperatingPoint step(const teg::SeriesString& string,
                             const power::Converter& converter);

  /// Runs `iters` iterations and returns the final point.
  power::OperatingPoint run(const teg::SeriesString& string,
                            const power::Converter& converter,
                            std::size_t iters);

  double current_a() const { return current_a_; }

 private:
  double step_a_;
  double current_a_ = 0.0;
  double prev_power_w_ = 0.0;
  double direction_ = 1.0;
  bool primed_ = false;
};

}  // namespace tegrec::oracle
