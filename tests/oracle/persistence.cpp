#include "oracle/persistence.hpp"

#include <stdexcept>

namespace tegrec::oracle {

void PersistencePredictor::fit(const predict::TemperatureHistory& history) {
  if (history.empty()) {
    throw std::invalid_argument("PersistencePredictor::fit: empty history");
  }
  fitted_ = true;
}

std::vector<double> PersistencePredictor::predict_next(
    const predict::TemperatureHistory& history) const {
  if (!fitted_) throw std::logic_error("PersistencePredictor: predict before fit");
  return history.latest();
}

}  // namespace tegrec::oracle
