#include "predict/mlr.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <string>

#include "oracle/least_squares.hpp"
#include "util/linalg.hpp"
#include "util/rng.hpp"

namespace tegrec::predict {
namespace {

// Fills a history with a deterministic AR(2) process per module.
TemperatureHistory ar2_history(std::size_t modules, std::size_t steps,
                               double a1, double a2, double c) {
  TemperatureHistory h(modules, steps);
  std::vector<double> prev(modules), prev2(modules);
  for (std::size_t m = 0; m < modules; ++m) {
    prev[m] = 80.0 + static_cast<double>(m);
    prev2[m] = 79.0 + static_cast<double>(m);
  }
  h.push(prev2);
  h.push(prev);
  for (std::size_t t = 2; t < steps; ++t) {
    std::vector<double> next(modules);
    for (std::size_t m = 0; m < modules; ++m) {
      next[m] = c + a1 * prev[m] + a2 * prev2[m];
    }
    h.push(next);
    prev2 = prev;
    prev = next;
  }
  return h;
}

TEST(Mlr, RecoversExactArProcess) {
  // Data generated by T_{t+1} = 2 + 1.2 T_t - 0.25 T_{t-1}: a lags>=2 MLR
  // must recover the coefficients and predict exactly.
  MlrPredictor mlr(MlrParams{.lags = 2, .ridge = 0.0});
  const TemperatureHistory h = ar2_history(4, 20, 1.2, -0.25, 2.0);
  mlr.fit(h);
  ASSERT_TRUE(mlr.is_fitted());
  const auto& beta = mlr.coefficients();
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 2.0, 1e-5);
  EXPECT_NEAR(beta[1], 1.2, 1e-7);
  EXPECT_NEAR(beta[2], -0.25, 1e-7);

  const auto pred = mlr.predict_next(h);
  for (std::size_t m = 0; m < 4; ++m) {
    const double expected =
        2.0 + 1.2 * h.latest()[m] - 0.25 * h.row(h.size() - 2)[m];
    EXPECT_NEAR(pred[m], expected, 1e-6);
  }
}

TEST(Mlr, PredictsConstantSignalExactly) {
  MlrPredictor mlr;
  TemperatureHistory h(3, 20);
  for (int t = 0; t < 20; ++t) h.push({90.0, 85.0, 80.0});
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  EXPECT_NEAR(pred[0], 90.0, 1e-3);
  EXPECT_NEAR(pred[1], 85.0, 1e-3);
  EXPECT_NEAR(pred[2], 80.0, 1e-3);
}

TEST(Mlr, TracksLinearTrend) {
  MlrPredictor mlr(MlrParams{.lags = 3, .ridge = 1e-10});
  TemperatureHistory h(2, 30);
  for (int t = 0; t < 30; ++t) {
    h.push({80.0 + 0.1 * t, 60.0 + 0.1 * t});
  }
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  EXPECT_NEAR(pred[0], 80.0 + 0.1 * 30, 0.02);
  EXPECT_NEAR(pred[1], 60.0 + 0.1 * 30, 0.02);
}

TEST(Mlr, HorizonRollsForward) {
  MlrPredictor mlr(MlrParams{.lags = 2, .ridge = 0.0});
  const TemperatureHistory h = ar2_history(2, 25, 1.1, -0.15, 1.0);
  mlr.fit(h);
  const auto rows = mlr.predict_horizon(h, 3);
  ASSERT_EQ(rows.size(), 3u);
  // Roll the true process forward and compare.
  double t0 = h.latest()[0];
  double t1 = h.row(h.size() - 2)[0];
  for (std::size_t k = 0; k < 3; ++k) {
    const double next = 1.0 + 1.1 * t0 - 0.15 * t1;
    EXPECT_NEAR(rows[k][0], next, 1e-4) << "horizon step " << k;
    t1 = t0;
    t0 = next;
  }
}

TEST(Mlr, NoisyArStillCloselyPredicted) {
  util::Rng rng(5);
  MlrPredictor mlr(MlrParams{.lags = 4});
  TemperatureHistory h(10, 60);
  std::vector<double> x(10, 85.0);
  for (int t = 0; t < 60; ++t) {
    for (auto& v : x) v = 0.98 * v + 1.7 + rng.gaussian(0.0, 0.05);
    h.push(x);
  }
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  for (std::size_t m = 0; m < 10; ++m) {
    const double expected = 0.98 * h.latest()[m] + 1.7;
    EXPECT_NEAR(pred[m], expected, 0.35);
  }
}

TEST(Mlr, ErrorsOnMisuse) {
  MlrPredictor mlr(MlrParams{.lags = 4});
  TemperatureHistory h(2, 10);
  h.push({1.0, 2.0});
  EXPECT_THROW(mlr.fit(h), std::invalid_argument);       // too short
  EXPECT_THROW(mlr.predict_next(h), std::logic_error);   // unfitted
  EXPECT_THROW(MlrPredictor(MlrParams{.lags = 0}), std::invalid_argument);
}

TEST(Mlr, PredictWithShortHistoryThrows) {
  MlrPredictor mlr(MlrParams{.lags = 3});
  TemperatureHistory h(1, 10);
  for (int t = 0; t < 5; ++t) h.push({50.0 + t});
  mlr.fit(h);
  TemperatureHistory short_h(1, 10);
  short_h.push({50.0});
  EXPECT_THROW(mlr.predict_next(short_h), std::invalid_argument);
}

TEST(Mlr, NameAndLags) {
  MlrPredictor mlr(MlrParams{.lags = 6});
  EXPECT_EQ(mlr.name(), "MLR");
  EXPECT_EQ(mlr.num_lags(), 6u);
}

TEST(PredictorBase, HorizonZeroThrows) {
  MlrPredictor mlr;
  const TemperatureHistory h = ar2_history(2, 25, 1.0, 0.0, 0.0);
  mlr.fit(h);
  EXPECT_THROW(mlr.predict_horizon(h, 0), std::invalid_argument);
}

// The least-squares problem fit() solves, materialised the way fit() once
// built it: one design row [1, T_{t-1}, ..., T_{t-L}] -> T_t per (t,
// module), t-major, solved by oracle::least_squares.
std::vector<double> materialised_fit(const TemperatureHistory& h,
                                     std::size_t lags, double ridge) {
  const std::size_t modules = h.num_modules();
  util::Matrix x(modules * (h.size() - lags), lags + 1);
  std::vector<double> y(x.rows());
  std::size_t r = 0;
  for (std::size_t t = lags; t < h.size(); ++t) {
    for (std::size_t m = 0; m < modules; ++m, ++r) {
      x(r, 0) = 1.0;
      for (std::size_t k = 1; k <= lags; ++k) x(r, k) = h.row(t - k)[m];
      y[r] = h.row(t)[m];
    }
  }
  return oracle::least_squares(x, y, ridge);
}

void expect_bit_identical_fit(const TemperatureHistory& h, std::size_t lags,
                              double ridge, const std::string& label) {
  MlrPredictor mlr(MlrParams{.lags = lags, .ridge = ridge});
  mlr.fit(h);
  const std::vector<double> expected = materialised_fit(h, lags, ridge);
  ASSERT_EQ(mlr.coefficients().size(), expected.size()) << label;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(mlr.coefficients()[k], expected[k])
        << label << " lags " << lags << " coefficient " << k;
  }
}

TEST(MlrStreamedFit, BitIdenticalToMaterialisedLeastSquares) {
  util::Rng rng(2024);
  for (std::size_t lags = 1; lags <= 6; ++lags) {
    for (std::size_t trial = 0; trial < 8; ++trial) {
      const std::size_t modules =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 11));
      const std::size_t steps =
          2 * lags + 8 + static_cast<std::size_t>(rng.uniform_int(0, 32));
      TemperatureHistory h(modules, steps);
      std::vector<double> row(modules);
      for (auto& v : row) v = rng.uniform(40.0, 95.0);
      for (std::size_t t = 0; t < steps; ++t) {
        for (auto& v : row) v = 0.97 * v + 2.4 + rng.gaussian(0.0, 0.3);
        h.push(row);
      }
      const double ridge = trial % 2 == 0 ? 1e-8 : 0.0;
      expect_bit_identical_fit(h, lags, ridge,
                               "random trial " + std::to_string(trial));
    }
  }
}

TEST(MlrStreamedFit, BitIdenticalWithExactZeroTemperatures) {
  // Exact zeros (+0 and -0) exercise X^T X's exact-zero skip, which X^T y
  // does not take; the streamed sums must take the same branches.
  util::Rng rng(77);
  for (std::size_t lags = 1; lags <= 6; ++lags) {
    for (std::size_t trial = 0; trial < 6; ++trial) {
      const std::size_t modules = 2 + trial;
      const std::size_t steps = lags + 12 + 3 * trial;
      TemperatureHistory h(modules, steps);
      std::vector<double> row(modules);
      for (std::size_t t = 0; t < steps; ++t) {
        for (auto& v : row) {
          const double u = rng.uniform(0.0, 1.0);
          v = u < 0.25 ? 0.0 : u < 0.35 ? -0.0 : rng.uniform(-5.0, 90.0);
        }
        h.push(row);
      }
      expect_bit_identical_fit(h, lags, 1e-8,
                               "zeros trial " + std::to_string(trial));
    }
  }
}

TEST(MlrStreamedFit, BitIdenticalOnConstantSignals) {
  // Constant histories make X^T X singular: with no ridge the Cholesky
  // pivot hits zero and cholesky_solve takes its diagonal-jitter retry.
  // An all-zero history also skips every lag term.
  for (std::size_t lags = 1; lags <= 6; ++lags) {
    for (const double level : {0.0, 50.0, 87.25}) {
      TemperatureHistory h(4, lags + 16);
      for (std::size_t t = 0; t < lags + 16; ++t) {
        h.push(std::vector<double>(4, level));
      }
      for (const double ridge : {0.0, 1e-8}) {
        expect_bit_identical_fit(h, lags, ridge,
                                 "constant " + std::to_string(level));
      }
    }
  }
}

// MAPE of the 1-step MLR forecast on a smooth thermal-like signal must be
// tiny across lag orders — the paper's "< 0.3%" claim (Fig. 5).
class MlrLagSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlrLagSweep, SubPercentErrorOnSmoothSignal) {
  const std::size_t lags = GetParam();
  MlrPredictor mlr(MlrParams{.lags = lags});
  TemperatureHistory h(5, 40);
  for (int t = 0; t < 40; ++t) {
    std::vector<double> row(5);
    for (int m = 0; m < 5; ++m) {
      row[m] = 85.0 + 3.0 * std::sin(0.05 * t + m) - 2.0 * m;
    }
    h.push(row);
  }
  mlr.fit(h);
  const auto pred = mlr.predict_next(h);
  std::vector<double> actual(5);
  for (int m = 0; m < 5; ++m) {
    actual[m] = 85.0 + 3.0 * std::sin(0.05 * 40 + m) - 2.0 * m;
  }
  for (int m = 0; m < 5; ++m) {
    EXPECT_NEAR(pred[m], actual[m], 0.01 * std::abs(actual[m])) << "module " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Lags, MlrLagSweep, ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
}  // namespace tegrec::predict
