#include "thermal/radiator.hpp"

#include <stdexcept>

namespace tegrec::thermal {

std::vector<double> module_hot_side_temperatures(const RadiatorLayout& layout,
                                                 const StreamConditions& cond) {
  if (layout.num_modules == 0) {
    throw std::invalid_argument("module_hot_side_temperatures: no modules");
  }
  if (layout.surface_coupling <= 0.0 || layout.surface_coupling > 1.0) {
    throw std::invalid_argument("module_hot_side_temperatures: coupling out of (0,1]");
  }
  const std::vector<double> coolant =
      temperature_profile(layout.exchanger, cond, layout.num_modules);
  std::vector<double> hot(coolant.size());
  for (std::size_t i = 0; i < coolant.size(); ++i) {
    hot[i] = cond.cold_inlet_c +
             layout.surface_coupling * (coolant[i] - cond.cold_inlet_c);
  }
  return hot;
}

}  // namespace tegrec::thermal
