// Temperature-prediction playground: fit MLR / BPNN / SVR on
// a synthetic radiator trace and compare accuracy across forecast horizons.
//
// Mirrors Section IV of the paper; useful for picking the DNOR predictor
// and horizon for a new vehicle or heat source.
//
//   ./build/examples/prediction_comparison
#include <cstdio>
#include <memory>
#include <vector>

#include "predict/bpnn.hpp"
#include "predict/evaluate.hpp"
#include "predict/mlr.hpp"
#include "predict/svr.hpp"
#include "thermal/trace.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main() {
  using namespace tegrec;

  // A 400 s urban-heavy trace: the hardest regime for prediction because
  // stop-and-go driving keeps the airflow (and thus the whole temperature
  // profile) moving.
  thermal::TraceGeneratorConfig config;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 200.0, 30.0, 0.0},
                     {thermal::DriveSegment::Kind::kHill, 100.0, 45.0, 5.0},
                     {thermal::DriveSegment::Kind::kUrban, 100.0, 28.0, 0.0}};
  config.seed = 77;
  const thermal::TemperatureTrace trace = thermal::generate_trace(config);
  std::printf("trace: %zu modules, %.0f s urban/hill mix\n\n",
              trace.num_modules(), trace.duration_s());

  auto make_predictors = [] {
    std::vector<std::unique_ptr<predict::Predictor>> out;
    out.push_back(std::make_unique<predict::MlrPredictor>());
    predict::BpnnParams nn;
    nn.epochs = 8;
    nn.module_stride = 5;
    out.push_back(std::make_unique<predict::BpnnPredictor>(nn));
    predict::SvrParams svr;
    svr.iterations = 120;
    svr.module_stride = 5;
    out.push_back(std::make_unique<predict::SvrPredictor>(svr));
    return out;
  };

  for (double horizon_s : {0.5, 1.0, 2.0, 4.0}) {
    predict::EvaluationOptions options;
    options.window = 30;
    options.horizon_steps =
        static_cast<std::size_t>(horizon_s / trace.dt_s());
    options.start_time_s = 30.0;
    std::printf("-- forecast horizon %.1f s --\n", horizon_s);
    util::TextTable table({"method", "mean MAPE %", "max MAPE %", "fit ms"});
    // Each predictor's online walk is sequential (refits on its own
    // window), but the predictors are independent of each other: evaluate
    // them in parallel and render in fixed order afterwards.
    auto predictors = make_predictors();
    std::vector<predict::EvaluationResult> results(predictors.size());
    util::parallel_for(predictors.size(), 0, [&](std::size_t i) {
      results[i] = predict::evaluate_online(*predictors[i], trace, options);
    });
    for (const auto& res : results) {
      table.begin_row()
          .add(res.predictor_name)
          .add(res.mean_mape_percent, 4)
          .add(res.max_mape_percent, 4)
          .add(res.mean_fit_time_ms, 3);
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("Reading: MLR wins at every horizon while fitting in a fraction\n"
              "of a millisecond, which is why DNOR uses it (Section IV).\n");
  return 0;
}
