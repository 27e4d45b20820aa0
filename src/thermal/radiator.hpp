// Radiator geometry and TEG hot-side temperature sampling.
//
// Section III.A of the paper: the 2-D radiator is treated as a parallel
// bundle of identical 1-D S-shaped tubes, so a single 1-D model with N TEG
// modules placed along the coolant path suffices.  Each module's hot side
// is clamped to the radiator surface; its cold side sees the heatsink,
// assumed at ambient temperature (typical vehicle operating condition per
// the paper).  The surface does not reach coolant temperature: tube wall,
// contact and spreading resistances divide the coolant-to-ambient drop,
// captured by `surface_coupling`.
#pragma once

#include <cstddef>
#include <vector>

#include "thermal/heat_exchanger.hpp"

namespace tegrec::thermal {

/// Static description of the instrumented radiator.
struct RadiatorLayout {
  HeatExchangerParams exchanger;
  std::size_t num_modules = 100;  ///< N TEG modules along the S-shaped path
  /// Fraction of the coolant-to-ambient temperature difference that appears
  /// across the TEG module:  T_hot(i) - T_amb = coupling * (T(d_i) - T_amb).
  /// 1.0 would mean a perfect thermal short from coolant to module hot side.
  double surface_coupling = 0.72;
};

/// Hot-side temperatures of all N modules for the given stream conditions.
/// Element i corresponds to the i-th module from the coolant entrance
/// (1-indexed in the paper, 0-indexed here).
std::vector<double> module_hot_side_temperatures(const RadiatorLayout& layout,
                                                 const StreamConditions& cond);

}  // namespace tegrec::thermal
