// Persistence (naive last-value) predictor.
//
// Forecasts T_{t+1,i} = T_{t,i}.  Not one of the paper's three methods but
// the standard sanity baseline: any learned predictor must beat it on MAPE
// to justify its runtime, and the property tests and the prediction
// benches pin that ordering.
#pragma once

#include "predict/predictor.hpp"

namespace tegrec::oracle {

class PersistencePredictor final : public predict::Predictor {
 public:
  std::string name() const override { return "Persistence"; }
  std::size_t num_lags() const override { return 1; }
  void fit(const predict::TemperatureHistory& history) override;
  bool is_fitted() const override { return fitted_; }
  std::vector<double> predict_next(
      const predict::TemperatureHistory& history) const override;

 private:
  bool fitted_ = false;
};

}  // namespace tegrec::oracle
