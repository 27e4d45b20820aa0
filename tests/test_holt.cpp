#include "predict/holt.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "oracle/persistence.hpp"
#include "util/rng.hpp"

namespace tegrec::predict {
namespace {

TEST(Holt, PredictsConstantSignalExactly) {
  HoltPredictor holt;
  TemperatureHistory h(3, 20);
  for (int t = 0; t < 20; ++t) h.push({90.0, 80.0, 70.0});
  holt.fit(h);
  const auto pred = holt.predict_next(h);
  EXPECT_NEAR(pred[0], 90.0, 1e-9);
  EXPECT_NEAR(pred[1], 80.0, 1e-9);
  EXPECT_NEAR(pred[2], 70.0, 1e-9);
}

TEST(Holt, TracksLinearTrendExactly) {
  // Holt with any (alpha, beta) follows a noiseless linear ramp exactly
  // once the state has converged.
  HoltPredictor holt;
  TemperatureHistory h(2, 40);
  for (int t = 0; t < 40; ++t) h.push({50.0 + 0.5 * t, 100.0 - 0.25 * t});
  holt.fit(h);
  const auto pred = holt.predict_next(h);
  EXPECT_NEAR(pred[0], 50.0 + 0.5 * 40, 1e-6);
  EXPECT_NEAR(pred[1], 100.0 - 0.25 * 40, 1e-6);
}

TEST(Holt, HorizonExtrapolatesTrend) {
  HoltPredictor holt;
  TemperatureHistory h(1, 40);
  for (int t = 0; t < 40; ++t) h.push({20.0 + 1.0 * t});
  holt.fit(h);
  const auto rows = holt.predict_horizon(h, 5);
  ASSERT_EQ(rows.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(rows[k][0], 60.0 + static_cast<double>(k), 1e-5)
        << "horizon step " << k;
  }
}

TEST(Holt, BeatsPersistenceOnTrendingSignal) {
  TemperatureHistory h(4, 30);
  for (int t = 0; t < 30; ++t) {
    std::vector<double> row(4);
    for (int m = 0; m < 4; ++m) row[m] = 60.0 + 0.8 * t + 5.0 * m;
    h.push(row);
  }
  HoltPredictor holt;
  oracle::PersistencePredictor naive;
  holt.fit(h);
  naive.fit(h);
  const auto p_holt = holt.predict_next(h);
  const auto p_naive = naive.predict_next(h);
  for (int m = 0; m < 4; ++m) {
    const double actual = 60.0 + 0.8 * 30 + 5.0 * m;
    EXPECT_LT(std::abs(p_holt[m] - actual), std::abs(p_naive[m] - actual));
  }
}

TEST(Holt, StableUnderNoise) {
  util::Rng rng(9);
  HoltPredictor holt(HoltParams{.alpha = 0.4, .beta = 0.1});
  TemperatureHistory h(5, 50);
  for (int t = 0; t < 50; ++t) {
    std::vector<double> row(5, 85.0);
    for (auto& x : row) x += rng.gaussian(0.0, 0.4);
    h.push(row);
  }
  holt.fit(h);
  for (double p : holt.predict_next(h)) {
    EXPECT_GT(p, 82.0);
    EXPECT_LT(p, 88.0);
  }
}

TEST(Holt, ParamValidationAndMisuse) {
  EXPECT_THROW(HoltPredictor(HoltParams{.alpha = 0.0, .beta = 0.1}),
               std::invalid_argument);
  EXPECT_THROW(HoltPredictor(HoltParams{.alpha = 1.2, .beta = 0.1}),
               std::invalid_argument);
  EXPECT_THROW(HoltPredictor(HoltParams{.alpha = 0.5, .beta = -0.1}),
               std::invalid_argument);
  HoltPredictor holt;
  TemperatureHistory h(2, 5);
  h.push({1.0, 2.0});
  EXPECT_THROW(holt.fit(h), std::invalid_argument);  // need 2 rows
  EXPECT_THROW(holt.predict_next(h), std::logic_error);
  EXPECT_EQ(holt.name(), "Holt");
  EXPECT_EQ(holt.num_lags(), 2u);
}

TEST(Holt, StateExposedAfterFit) {
  HoltPredictor holt;
  TemperatureHistory h(2, 10);
  for (int t = 0; t < 10; ++t) h.push({10.0 + t, 20.0});
  holt.fit(h);
  ASSERT_EQ(holt.levels().size(), 2u);
  EXPECT_NEAR(holt.trends()[0], 1.0, 1e-6);   // ramp slope
  EXPECT_NEAR(holt.trends()[1], 0.0, 1e-6);   // flat channel
}

}  // namespace
}  // namespace tegrec::predict
