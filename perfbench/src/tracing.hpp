// Traced-run machinery shared by the batch and stream workloads.
//
// Live spans come from the benchmark's own calls into the library.  One
// layer boundary sits inside SimStepper: the controller's update().  The
// benchmark reaches it by handing the stepper a decorating Reconfigurer
// that times every update() as a `core.update` span and records its
// inputs and outputs.  Layers reached only from inside a controller (the
// EHTR partition DP and candidate scoring, DNOR's predictor refits, the
// switch fabric's diff/apply) are then timed by replaying those recorded
// inputs into each layer's public functions.
#pragma once

#include <cstddef>
#include <vector>

#include "core/reconfigurer.hpp"
#include "gate.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// Forwards every call to `inner`; update() runs inside a `core.update`
/// span and is recorded for the replays.
class TracingReconfigurer final : public tegrec::core::Reconfigurer {
 public:
  struct Call {
    std::vector<double> delta_t_k;
    double ambient_c = 0.0;
    tegrec::core::UpdateResult result;
  };

  TracingReconfigurer(tegrec::core::Reconfigurer& inner, SpanRecorder& recorder,
                      std::int32_t run)
      : inner_(inner), recorder_(recorder), run_(run) {}

  std::string name() const override { return inner_.name(); }
  tegrec::core::UpdateResult update(double time_s,
                                    const std::vector<double>& delta_t_k,
                                    double ambient_c) override;
  void reset() override {
    inner_.reset();
    calls_.clear();
  }
  tegrec::core::AlgorithmCost algorithm_cost() const override {
    return inner_.algorithm_cost();
  }
  bool supports_checkpoint() const override {
    return inner_.supports_checkpoint();
  }
  std::string checkpoint_state() const override {
    return inner_.checkpoint_state();
  }
  void restore_checkpoint_state(const std::string& state) override {
    inner_.restore_checkpoint_state(state);
  }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  tegrec::core::Reconfigurer& inner_;
  SpanRecorder& recorder_;
  std::int32_t run_;
  std::vector<Call> calls_;
};

/// Replays one controller's recorded calls into the layers it reaches
/// internally, as replay spans of run `run`: EHTR's partition DP, candidate
/// scoring and full search (EHTR only), DNOR's predictor refits (DNOR
/// only), and the switch fabric (every scheme).  Each replay must reproduce
/// the live decision; a divergence fails `gate`.
void replay_layers(const std::string& scheme,
                   const std::vector<TracingReconfigurer::Call>& calls,
                   const tegrec::sim::SimulationOptions& options,
                   std::size_t num_modules, std::int32_t run,
                   SpanRecorder& recorder, Gate& gate);

/// Span names the workloads record and layer_metrics() reads.
namespace span {
inline constexpr const char* kRun = "sim.run";  ///< one live scheme/array loop
inline constexpr const char* kTrace = "thermal.generate_trace";
inline constexpr const char* kPoll = "sim.telemetry.poll";
inline constexpr const char* kStep = "sim.stepper.step";
inline constexpr const char* kUpdate = "core.update";
inline constexpr const char* kEmit = "sim.stream.emit";
inline constexpr const char* kEncode = "sim.checkpoint.encode";
inline constexpr const char* kWrite = "util.atomic_file.write";
inline constexpr const char* kRestore = "sim.checkpoint.restore";
inline constexpr const char* kDp = "core.partition_dp";
inline constexpr const char* kScore = "teg.score";
inline constexpr const char* kSearch = "core.ehtr_search";
inline constexpr const char* kFit = "predict.fit";
inline constexpr const char* kFabric = "switchfab.apply";
}  // namespace span

/// The per-layer metrics of a traced run, in BENCHMARK.json order.  Every
/// workload reports every metric (0 where a layer does no work).  Shares
/// are a layer's time over the live loops' time (the `sim.run` spans);
/// live layers count self time, replayed layers their replay time.
/// Counters the recorder must hold are listed in tracing.cpp.
/// `overhead_ratio` is traced over untraced steps per second, measured by
/// the workload.
std::vector<Metric> layer_metrics(const SpanRecorder& recorder, double overhead_ratio);

}  // namespace perfbench
