// Golden bytes of the two text codecs that share the step-table format:
// the checkpoint (sim/checkpoint.hpp) and the result artifact
// (sim/result_io.hpp).  Files written by one build are read by the next,
// so any change to how a cell is spelled is a format change.  The states
// below are built by hand to hit every awkward double: NaN (an empty
// cell), +/-inf, -0.0, an exact integer, a subnormal and a value that
// needs all 17 significant digits; the carry-along lines hold commas and
// quotes.  Each golden text must also decode and re-encode to itself.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/result_io.hpp"
#include "sim/spec.hpp"

namespace tegrec::sim {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();

constexpr const char* kCheckpointStamp = "scheme = dnor\ndt_s = 0.5\n";
const std::string kCheckpointText =
    "# tegrec-checkpoint v1\n"
    "# config lines = 2\n"
    "scheme = dnor\n"
    "dt_s = 0.5\n"
    "steps_consumed = 2\n"
    "total_compute_s = 0.10000000000000001\n"
    "has_fabric = 1\n"
    "fabric_group_starts = 0,4,9\n"
    "battery_soc = 0.25\n"
    "battery_energy_j = -0\n"
    "# controller lines = 2\n"
    "k = v\n"
    "w = 1e-300\n"
    "algorithm = DNOR\n"
    "# table rows = 1\n"
    "energy_output_j,switch_overhead_j,avg_runtime_ms,"
    "runtime_per_invocation_ms,ideal_energy_j,num_invocations,"
    "num_switch_events,total_switch_actuations,battery_energy_j,"
    "final_soc\n"
    "0.66666666666666663,-0,,inf,1,1,1,3,4.9406564584124654e-324,0.5\n"
    "# table rows = 2\n"
    "time_s,gross_power_w,net_power_w,ideal_power_w,invoked,switched,"
    "switch_actuations,overhead_energy_j,compute_time_s\n"
    "-0,,inf,-inf,1,0,3,4.9406564584124654e-324,0.10000000000000001\n"
    "1,0.30000000000000004,123456789.12345679,1.0000000000000001e+300,0,"
    "1,0,-2.5000000000000171e-310,\n"
    "# extra lines = 2\n"
    "{\"array\":\"a,b\",\"detail\":\"say \\\"hi\\\", twice\"}\n"
    ",,\"\",\n"
    "# end\n";

constexpr const char* kArtifactStamp = "kind = comparison\n";
const std::string kArtifactText =
    "# tegrec-result v1\n"
    "# kind = comparison\n"
    "# fingerprint-lines = 1\n"
    "kind = comparison\n"
    "# runs = 2\n"
    "# run algorithm = DNOR\n"
    "# table rows = 1\n"
    "energy_output_j,switch_overhead_j,avg_runtime_ms,"
    "runtime_per_invocation_ms,ideal_energy_j,num_invocations,"
    "num_switch_events,total_switch_actuations,battery_energy_j,"
    "final_soc\n"
    "0.66666666666666663,-0,,inf,1,1,1,3,4.9406564584124654e-324,0.5\n"
    "# table rows = 1\n"
    "time_s,gross_power_w,net_power_w,ideal_power_w,invoked,switched,"
    "switch_actuations,overhead_energy_j,compute_time_s\n"
    "-0,,inf,-inf,1,0,3,4.9406564584124654e-324,0.10000000000000001\n"
    "# run algorithm = Baseline\n"
    "# table rows = 1\n"
    "energy_output_j,switch_overhead_j,avg_runtime_ms,"
    "runtime_per_invocation_ms,ideal_energy_j,num_invocations,"
    "num_switch_events,total_switch_actuations,battery_energy_j,"
    "final_soc\n"
    "0,0,0,0,0,0,0,0,0,0\n"
    "# table rows = 0\n"
    "time_s,gross_power_w,net_power_w,ideal_power_w,invoked,switched,"
    "switch_actuations,overhead_energy_j,compute_time_s\n"
    "# end\n";

SimulationResult awkward_run() {
  SimulationResult run;
  run.algorithm = "DNOR";
  StepRecord a;
  a.time_s = -0.0;
  a.gross_power_w = kNan;
  a.net_power_w = kInf;
  a.ideal_power_w = -kInf;
  a.invoked = true;
  a.switched = false;
  a.switch_actuations = 3;
  a.overhead_energy_j = kSubnormal;
  a.compute_time_s = 0.1;
  StepRecord b;
  b.time_s = 1.0;
  b.gross_power_w = 0.1 + 0.2;
  b.net_power_w = 123456789.12345679;
  b.ideal_power_w = 1e300;
  b.invoked = false;
  b.switched = true;
  b.switch_actuations = 0;
  b.overhead_energy_j = -2.5e-310;
  b.compute_time_s = kNan;
  run.steps = {a, b};
  run.energy_output_j = 2.0 / 3.0;
  run.switch_overhead_j = -0.0;
  run.avg_runtime_ms = kNan;
  run.runtime_per_invocation_ms = kInf;
  run.ideal_energy_j = 1.0;
  run.num_invocations = 1;
  run.num_switch_events = 1;
  run.total_switch_actuations = 3;
  run.battery_energy_j = kSubnormal;
  run.final_soc = 0.5;
  return run;
}

TEST(CodecGolden, CheckpointBytesArePinned) {
  StepperState state;
  state.steps_consumed = 2;
  state.total_compute_s = 0.1;
  state.has_fabric = true;
  state.fabric_group_starts = {0, 4, 9};
  state.battery_soc = 0.25;
  state.battery_energy_j = -0.0;
  state.controller_state = "k = v\nw = 1e-300\n";
  state.partial = awkward_run();
  const std::vector<std::string> extra = {
      R"({"array":"a,b","detail":"say \"hi\", twice"})", ",,\"\","};

  EXPECT_EQ(encode_checkpoint(state, kCheckpointStamp, extra), kCheckpointText);
}

TEST(CodecGolden, ComparisonArtifactBytesArePinned) {
  ExperimentResult result;
  result.kind = ExperimentKind::kComparison;
  result.comparison.runs = {awkward_run()};
  result.comparison.runs.back().steps.resize(1);
  SimulationResult& empty = result.comparison.runs.emplace_back();
  empty.algorithm = "Baseline";

  EXPECT_EQ(encode_result(result, kArtifactStamp), kArtifactText);
}

// Decoding must give back every value encoded — subnormals included — so
// each golden text re-encodes to itself.
TEST(CodecGolden, CheckpointRoundTripsByteIdentically) {
  const DecodedCheckpoint decoded =
      decode_checkpoint(kCheckpointText, kCheckpointStamp);
  EXPECT_EQ(encode_checkpoint(decoded.state, kCheckpointStamp,
                              decoded.extra_lines),
            kCheckpointText);
}

TEST(CodecGolden, ComparisonArtifactRoundTripsByteIdentically) {
  const std::optional<ExperimentResult> decoded =
      decode_result(kArtifactText, kArtifactStamp);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_result(*decoded, kArtifactStamp), kArtifactText);
}

}  // namespace
}  // namespace tegrec::sim
