#include "oracle/perturb_observe.hpp"

#include <algorithm>
#include <stdexcept>

namespace tegrec::oracle {

namespace {

// The operating point of the string at a current, as
// power::optimal_operating_point evaluates it.
power::OperatingPoint evaluate(const teg::SeriesString& string,
                               const power::Converter& converter,
                               double current_a) {
  power::OperatingPoint pt;
  pt.current_a = current_a;
  pt.voltage_v =
      string.total_voc_v() - current_a * string.total_resistance_ohm();
  pt.array_power_w = std::max(0.0, pt.voltage_v * current_a);
  pt.output_power_w = converter.output_power_w(pt.voltage_v, pt.array_power_w);
  return pt;
}

}  // namespace

PerturbObserveTracker::PerturbObserveTracker(double step_a) : step_a_(step_a) {
  if (step_a <= 0.0) throw std::invalid_argument("PerturbObserveTracker: step <= 0");
}

void PerturbObserveTracker::reset(double current_a) {
  current_a_ = std::max(0.0, current_a);
  prev_power_w_ = 0.0;
  direction_ = 1.0;
  primed_ = false;
}

power::OperatingPoint PerturbObserveTracker::step(
    const teg::SeriesString& string, const power::Converter& converter) {
  const power::OperatingPoint now = evaluate(string, converter, current_a_);
  if (now.output_power_w <= 0.0) {
    // Converter dropout: the P&O power signal is flat at zero, so steer by
    // voltage instead.  Below the window (string loaded too hard) reduce
    // the current; above it (string nearly open) increase it.
    direction_ = now.voltage_v < converter.params().output_voltage_v ? -1.0 : 1.0;
    primed_ = false;  // re-prime once power reappears
  } else if (!primed_) {
    primed_ = true;
  } else if (now.output_power_w < prev_power_w_) {
    direction_ = -direction_;  // walked past the peak: turn around
  }
  prev_power_w_ = now.output_power_w;
  const double isc = string.total_voc_v() / string.total_resistance_ohm();
  current_a_ = std::clamp(current_a_ + direction_ * step_a_, 0.0, isc);
  return now;
}

power::OperatingPoint PerturbObserveTracker::run(
    const teg::SeriesString& string, const power::Converter& converter,
    std::size_t iters) {
  power::OperatingPoint pt;
  for (std::size_t k = 0; k < iters; ++k) pt = step(string, converter);
  return pt;
}

}  // namespace tegrec::oracle
