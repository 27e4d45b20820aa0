// Maximum-power-point tracking for the array charger.
//
// The paper's charger runs perturb-and-observe MPPT (Femia et al. [10])
// on the overall string current after each reconfiguration.  Because the
// string of linear sources has a strictly concave P(I), P&O converges to a
// neighbourhood of the optimum whose size is the perturbation step.
//
// The simulator models a settled tracker: optimal_operating_point is a
// golden-section search for the post-converter power maximum.  The
// iterative P&O controller itself is a test oracle
// (tests/oracle/perturb_observe.hpp); tests show it converges to within a
// few percent of this optimum, which is the evidence for the model.
#pragma once

#include "power/converter.hpp"
#include "teg/string.hpp"

namespace tegrec::power {

/// Result of tracking on one string/converter pair.
struct OperatingPoint {
  double current_a = 0.0;      ///< string current
  double voltage_v = 0.0;      ///< string (converter input) voltage
  double array_power_w = 0.0;  ///< power leaving the array
  double output_power_w = 0.0; ///< power after conversion losses
};

/// Golden-section search for the current maximising post-converter power.
/// The search interval is [0, Isc]; tolerance is on current.
OperatingPoint optimal_operating_point(const teg::SeriesString& string,
                                       const Converter& converter,
                                       double tol_a = 1e-6);

/// Same search on a bare Thevenin port model V(I) = voc_v - I * r_ohm —
/// the string reduced to its two scalars (e.g. by teg::ArrayEvaluator),
/// bit-identical to the SeriesString overload for equal (voc, R).
OperatingPoint optimal_operating_point(double voc_v, double r_ohm,
                                       const Converter& converter,
                                       double tol_a = 1e-6);

}  // namespace tegrec::power
