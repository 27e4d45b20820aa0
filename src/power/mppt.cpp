#include "power/mppt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tegrec::power {

namespace {

OperatingPoint evaluate(double voc_v, double r_ohm, const Converter& converter,
                        double current_a) {
  OperatingPoint pt;
  pt.current_a = current_a;
  pt.voltage_v = voc_v - current_a * r_ohm;
  pt.array_power_w = std::max(0.0, pt.voltage_v * current_a);
  pt.output_power_w = converter.output_power_w(pt.voltage_v, pt.array_power_w);
  return pt;
}

}  // namespace

OperatingPoint optimal_operating_point(const teg::SeriesString& string,
                                       const Converter& converter, double tol_a) {
  return optimal_operating_point(string.total_voc_v(),
                                 string.total_resistance_ohm(), converter,
                                 tol_a);
}

OperatingPoint optimal_operating_point(double voc_v, double r_ohm,
                                       const Converter& converter, double tol_a) {
  if (tol_a <= 0.0) throw std::invalid_argument("optimal_operating_point: tol <= 0");
  const double isc = voc_v / r_ohm;
  double lo = 0.0;
  double hi = isc;
  // Post-converter power is unimodal in I on [0, Isc]: P(I) is concave and
  // eta(V(I)) is smooth; golden-section is robust to the flat zero regions
  // outside the converter window.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double x1 = hi - phi * (hi - lo);
  double x2 = lo + phi * (hi - lo);
  double f1 = evaluate(voc_v, r_ohm, converter, x1).output_power_w;
  double f2 = evaluate(voc_v, r_ohm, converter, x2).output_power_w;
  while (hi - lo > tol_a) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + phi * (hi - lo);
      f2 = evaluate(voc_v, r_ohm, converter, x2).output_power_w;
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - phi * (hi - lo);
      f1 = evaluate(voc_v, r_ohm, converter, x1).output_power_w;
    }
  }
  return evaluate(voc_v, r_ohm, converter, 0.5 * (lo + hi));
}

}  // namespace tegrec::power
