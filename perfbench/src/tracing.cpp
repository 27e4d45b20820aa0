#include "tracing.hpp"

#include <cmath>
#include <optional>
#include <string>

#include "core/dnor.hpp"
#include "core/ehtr.hpp"
#include "core/inor.hpp"
#include "core/objective.hpp"
#include "power/converter.hpp"
#include "predict/history.hpp"
#include "predict/mlr.hpp"
#include "switchfab/switch_network.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"

namespace perfbench {

namespace core = tegrec::core;
namespace teg = tegrec::teg;

core::UpdateResult TracingReconfigurer::update(double time_s,
                                               const std::vector<double>& delta_t_k,
                                               double ambient_c) {
  core::UpdateResult result;
  {
    const ScopedSpan span(recorder_, span::kUpdate, run_);
    result = inner_.update(time_s, delta_t_k, ambient_c);
  }
  calls_.push_back({delta_t_k, ambient_c, result});
  return result;
}

namespace {

// ehtr_search at its default settings, with its stats.  Callers outside
// the library never choose the partition-DP kind, so the call does not
// name it: the first form is the signature without that parameter, the
// second passes it value-initialised, which is the default kind.
template <typename Array>
teg::ArrayConfig default_search(const Array& array,
                                const tegrec::power::Converter& converter,
                                core::EhtrSearchStats& stats) {
  if constexpr (requires {
                  core::ehtr_search(array, converter, std::size_t{1},
                                    std::size_t{0}, core::EhtrWarmStart{},
                                    &stats);
                }) {
    return core::ehtr_search(array, converter, 1, 0, core::EhtrWarmStart{},
                             &stats);
  } else {
    return core::ehtr_search(array, converter, 1, {}, 0, core::EhtrWarmStart{},
                             &stats);
  }
}

void replay_ehtr(const std::vector<TracingReconfigurer::Call>& calls,
                 const tegrec::sim::SimulationOptions& options, std::int32_t run,
                 SpanRecorder& recorder, Gate& gate) {
  const tegrec::power::Converter converter(options.converter);
  std::vector<std::size_t> starts;
  std::vector<double> scores;
  bool diverged = false;
  for (const auto& call : calls) {
    if (!call.result.invoked) continue;
    const teg::TegArray array(options.device, call.delta_t_k, call.ambient_c);
    // ehtr_search's own input sanitising: non-finite currents count as 0.
    std::vector<double> currents = array.module_mpp_currents();
    for (double& x : currents) {
      if (!std::isfinite(x)) x = 0.0;
    }
    std::optional<core::PartitionTable> table;
    {
      const ScopedSpan span(recorder, span::kDp, run, true);
      table.emplace(currents, currents.size());
    }
    recorder.count("core.partition_dp.layers_solved",
                   static_cast<double>(table->solved_groups()));
    {
      const ScopedSpan span(recorder, span::kScore, run, true);
      const teg::ArrayEvaluator evaluator(array);
      scores.resize(table->solved_groups());
      for (std::size_t n = 1; n <= table->solved_groups(); ++n) {
        table->reconstruct(n, starts);
        scores[n - 1] = core::config_power_w(evaluator, converter, starts);
      }
    }
    recorder.count("teg.score.candidates",
                   static_cast<double>(table->solved_groups()));
    core::EhtrSearchStats stats;
    teg::ArrayConfig chosen;
    {
      const ScopedSpan span(recorder, span::kSearch, run, true);
      chosen = default_search(array, converter, stats);
    }
    recorder.count("core.ehtr.groups_certified",
                   static_cast<double>(stats.groups_certified));
    recorder.count("core.ehtr.max_groups", static_cast<double>(stats.max_groups));
    diverged = diverged || !(chosen == call.result.config);
  }
  gate.check(!diverged, "replayed ehtr_search differs from the live EHTR decision");
}

void replay_dnor(const std::vector<TracingReconfigurer::Call>& calls,
                 const tegrec::sim::SimulationOptions& options,
                 std::size_t num_modules, std::int32_t run,
                 SpanRecorder& recorder, Gate& gate) {
  // DnorReconfigurer as make_stream_controller builds it: default params
  // and the default (MLR) predictor.
  const core::DnorParams params;
  const tegrec::power::Converter converter(options.converter);
  tegrec::predict::TemperatureHistory history(num_modules, params.history_window);
  tegrec::predict::MlrPredictor predictor;
  const auto horizon =
      static_cast<std::size_t>(std::llround(params.tp_s / params.control_period_s));
  bool has_config = false;
  teg::ArrayConfig current;
  bool diverged = false;
  std::vector<double> temps(num_modules);
  for (const auto& call : calls) {
    for (std::size_t i = 0; i < num_modules; ++i) {
      temps[i] = call.ambient_c + call.delta_t_k[i];
    }
    history.push(temps);
    if (!call.result.invoked) continue;
    if (has_config) {
      const teg::TegArray array(options.device, call.delta_t_k, call.ambient_c);
      const teg::ArrayConfig candidate =
          core::inor_search(array, converter, params.inor);
      if (call.result.switched && !(candidate == call.result.config)) {
        diverged = true;
      }
      if (!(candidate == current) && history.size() >= params.history_window &&
          horizon > 0) {
        const ScopedSpan span(recorder, span::kFit, run, true);
        predictor.fit(history);
        const auto forecast = predictor.predict_horizon(history, horizon);
        if (forecast.size() != horizon) diverged = true;
        recorder.count("predict.fit.calls");
      }
    }
    current = call.result.config;
    has_config = true;
  }
  gate.check(!diverged, "DNOR predictor replay lost track of the live decisions");
}

void replay_fabric(const std::vector<TracingReconfigurer::Call>& calls,
                   std::size_t num_modules, std::int32_t run,
                   SpanRecorder& recorder) {
  if (calls.empty()) return;
  // The stepper wires the first configuration for free, then applies
  // every configuration the controller asks it to actuate.
  tegrec::switchfab::SwitchNetwork fabric(num_modules, calls.front().result.config);
  for (std::size_t i = 1; i < calls.size(); ++i) {
    const core::UpdateResult& result = calls[i].result;
    if (!result.actuate) continue;
    const ScopedSpan span(recorder, span::kFabric, run, true);
    const auto plan = fabric.diff(result.config);
    recorder.count("switchfab.flip_cells", static_cast<double>(plan.flip_cells.size()));
    recorder.count("switchfab.actuations",
                   static_cast<double>(fabric.apply(result.config)));
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void replay_layers(const std::string& scheme,
                   const std::vector<TracingReconfigurer::Call>& calls,
                   const tegrec::sim::SimulationOptions& options,
                   std::size_t num_modules, std::int32_t run,
                   SpanRecorder& recorder, Gate& gate) {
  for (const auto& call : calls) {
    if (call.result.invoked) recorder.count("core.update.invocations");
    if (call.result.switched) recorder.count("core.update.switched");
  }
  if (scheme == "EHTR") replay_ehtr(calls, options, run, recorder, gate);
  if (scheme == "DNOR") replay_dnor(calls, options, num_modules, run, recorder, gate);
  replay_fabric(calls, num_modules, run, recorder);
}

std::vector<Metric> layer_metrics(const SpanRecorder& recorder, double overhead_ratio) {
  const auto totals = totals_by_name(recorder.spans());
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto spans = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.spans);
  };
  const auto c = [&](const char* name) { return recorder.counter(name); };
  const double live = total(span::kRun);
  const auto share = [&](double seconds) { return ratio(seconds, live); };

  const double lines = c("sim.telemetry.lines");
  const double invocations = c("core.update.invocations");
  const double fits = c("predict.fit.calls");
  return {
      {"thermal.trace_s", total(span::kTrace), "s"},
      {"thermal.samples", c("thermal.samples"), "count"},
      {"sim.telemetry.lines", lines, "count"},
      {"sim.telemetry.us_per_line", ratio(total(span::kPoll), lines) * 1e6, "us"},
      {"sim.telemetry.share", share(total(span::kPoll)), "fraction"},
      {"sim.stepper.steps", spans(span::kStep), "count"},
      {"sim.stepper.self_share", share(self(span::kStep)), "fraction"},
      {"core.update.invocations", invocations, "count"},
      {"core.update.ms_per_invocation", ratio(total(span::kUpdate), invocations) * 1e3,
       "ms"},
      {"core.update.share", share(total(span::kUpdate)), "fraction"},
      {"core.switch_ratio", ratio(c("core.update.switched"), invocations), "fraction"},
      {"core.partition_dp.layers_solved", c("core.partition_dp.layers_solved"), "count"},
      {"core.partition_dp.share", share(total(span::kDp)), "fraction"},
      {"core.ehtr.certified_ratio",
       ratio(c("core.ehtr.groups_certified"), c("core.ehtr.max_groups")), "fraction"},
      {"teg.score.candidates", c("teg.score.candidates"), "count"},
      {"teg.score.share", share(total(span::kScore)), "fraction"},
      {"predict.fit.calls", fits, "count"},
      {"predict.fit.ms_per_call", ratio(total(span::kFit), fits) * 1e3, "ms"},
      {"predict.fit.share", share(total(span::kFit)), "fraction"},
      {"switchfab.actuations", c("switchfab.actuations"), "count"},
      {"switchfab.flip_cells", c("switchfab.flip_cells"), "count"},
      {"switchfab.share", share(total(span::kFabric)), "fraction"},
      {"sim.checkpoint.saves", c("sim.checkpoint.saves"), "count"},
      {"sim.checkpoint.bytes_last", c("sim.checkpoint.bytes_last"), "bytes"},
      {"sim.checkpoint.bytes_total", c("sim.checkpoint.bytes_total"), "bytes"},
      {"sim.checkpoint.encode_share", share(total(span::kEncode)), "fraction"},
      {"sim.checkpoint.write_share", share(total(span::kWrite)), "fraction"},
      {"sim.checkpoint.restore_s", ratio(total(span::kRestore), spans(span::kRestore)),
       "s"},
      {"sim.stream.decision_lines", c("sim.stream.decision_lines"), "count"},
      {"sim.stream.log_bytes", c("sim.stream.log_bytes"), "bytes"},
      {"sim.service.executions", c("sim.service.executions"), "count"},
      {"sim.service.cache_hits", c("sim.service.cache_hits"), "count"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
  };
}

}  // namespace perfbench
