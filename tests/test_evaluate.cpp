#include "predict/evaluate.hpp"

#include <gtest/gtest.h>

#include "oracle/persistence.hpp"
#include "predict/mlr.hpp"

namespace tegrec::predict {
namespace {

// A small, fast synthetic trace with thermal-like smoothness.
thermal::TemperatureTrace small_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 10;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 120.0, 30.0, 0.0}};
  config.sample_dt_s = 1.0;
  config.sim_dt_s = 0.1;
  config.seed = 17;
  return thermal::generate_trace(config);
}

TEST(Evaluate, ProducesSeriesAndAggregates) {
  const auto trace = small_trace();
  MlrPredictor mlr;
  EvaluationOptions options;
  options.window = 20;
  const EvaluationResult res = evaluate_online(mlr, trace, options);
  EXPECT_EQ(res.predictor_name, "MLR");
  EXPECT_FALSE(res.mape_percent.empty());
  EXPECT_EQ(res.mape_percent.size(), res.time_s.size());
  EXPECT_GE(res.max_mape_percent, res.mean_mape_percent);
  EXPECT_GE(res.mean_fit_time_ms, 0.0);
}

TEST(Evaluate, MlrSubPercentOnThermalTrace) {
  // The paper's headline prediction claim: MLR's 1 s MAPE stays around or
  // below the percent level even on this small noisy trace (the full-scale
  // check lives in test_integration.cpp).
  const auto trace = small_trace();
  MlrPredictor mlr;
  EvaluationOptions options;
  options.window = 20;
  const EvaluationResult res = evaluate_online(mlr, trace, options);
  EXPECT_LT(res.mean_mape_percent, 1.0);
}

TEST(Evaluate, MlrBeatsPersistence) {
  const auto trace = small_trace();
  EvaluationOptions options;
  options.window = 20;
  MlrPredictor mlr;
  oracle::PersistencePredictor naive;
  const double mlr_mape = evaluate_online(mlr, trace, options).mean_mape_percent;
  const double naive_mape =
      evaluate_online(naive, trace, options).mean_mape_percent;
  EXPECT_LT(mlr_mape, naive_mape * 1.05);  // at worst on par, typically better
}

TEST(Evaluate, LongerHorizonNoMoreAccurate) {
  const auto trace = small_trace();
  EvaluationOptions h1;
  h1.window = 20;
  h1.horizon_steps = 1;
  EvaluationOptions h4 = h1;
  h4.horizon_steps = 4;
  MlrPredictor a, b;
  const double mape1 = evaluate_online(a, trace, h1).mean_mape_percent;
  const double mape4 = evaluate_online(b, trace, h4).mean_mape_percent;
  EXPECT_LE(mape1, mape4 * 1.2);
}

TEST(Evaluate, RefitCadenceReducesFitCalls) {
  const auto trace = small_trace();
  EvaluationOptions every;
  every.window = 20;
  every.refit_every = 1;
  EvaluationOptions sparse = every;
  sparse.refit_every = 10;
  MlrPredictor a, b;
  const auto r1 = evaluate_online(a, trace, every);
  const auto r2 = evaluate_online(b, trace, sparse);
  // Same number of scored steps either way.
  EXPECT_EQ(r1.mape_percent.size(), r2.mape_percent.size());
  // Sparse refitting cannot be dramatically less accurate on this signal.
  EXPECT_LT(r2.mean_mape_percent, r1.mean_mape_percent + 1.0);
}

TEST(Evaluate, OptionValidation) {
  const auto trace = small_trace();
  MlrPredictor mlr;
  EvaluationOptions bad;
  bad.window = mlr.num_lags();  // must exceed lag order
  EXPECT_THROW(evaluate_online(mlr, trace, bad), std::invalid_argument);
  bad = EvaluationOptions{};
  bad.horizon_steps = 0;
  EXPECT_THROW(evaluate_online(mlr, trace, bad), std::invalid_argument);
  bad = EvaluationOptions{};
  bad.refit_every = 0;
  EXPECT_THROW(evaluate_online(mlr, trace, bad), std::invalid_argument);
}

TEST(Evaluate, TraceTooShortThrows) {
  thermal::TemperatureTrace tiny(1.0, 4);
  tiny.append({50.0, 40.0, 30.0, 20.0}, 25.0);
  tiny.append({50.0, 40.0, 30.0, 20.0}, 25.0);
  MlrPredictor mlr;
  EvaluationOptions options;
  options.window = 20;
  EXPECT_THROW(evaluate_online(mlr, tiny, options), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::predict
