// The checkpoint codec: versioned, fingerprint-stamped, and loud.  A
// checkpoint must round-trip the full stepper state bit-exactly, refuse a
// stamp from any other configuration, and reject corrupt or truncated
// artifacts with an exception — never a silent fresh start.  The injected
// fault matrix (stream.checkpoint.write_fail/.torn/.crash) exercises the
// failure modes an operator will actually hit.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/stepper.hpp"
#include "thermal/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace tegrec::sim {
namespace {

thermal::TemperatureTrace test_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 12;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 12.0, 32.0, 0.0}};
  config.seed = 9;
  return thermal::generate_trace(config);
}

StreamConfig test_config(const thermal::TemperatureTrace& trace) {
  StreamConfig config;
  config.scheme = StreamScheme::kInor;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim.num_threads = 1;
  return config;
}

/// A stepper advanced `steps` samples into the test trace.
struct SteppedRun {
  std::unique_ptr<core::Reconfigurer> controller;
  std::unique_ptr<SimStepper> stepper;
};

SteppedRun make_run(const StreamConfig& config, const thermal::TemperatureTrace& trace,
             std::size_t steps) {
  SteppedRun run;
  run.controller = make_stream_controller(config);
  run.stepper = std::make_unique<SimStepper>(*run.controller, config.dt_s,
                                             config.num_modules, config.sim);
  for (std::size_t t = 0; t < steps; ++t) {
    TraceSample sample;
    sample.time_s = static_cast<double>(t) * trace.dt_s();
    sample.module_temps_c = trace.step_temperatures(t);
    sample.ambient_c = trace.ambient_c(t);
    run.stepper->step(sample);
  }
  return run;
}

/// Publishes the stepper's checkpoint the way the stream server does: the
/// codec, then the atomic write door.
void save(const SimStepper& stepper, const std::string& path,
          const std::string& stamp,
          const util::AtomicWriteOptions& options = {}) {
  util::atomic_write_file(path, encode_checkpoint(stepper.state(), stamp),
                          options);
}

/// Reads a published checkpoint back into `stepper`; a missing, corrupt or
/// differently stamped file throws std::runtime_error.
void restore(SimStepper& stepper, const std::string& path,
             const std::string& stamp) {
  const std::optional<std::string> text = util::read_file_if_exists(path);
  if (!text) throw std::runtime_error("cannot read checkpoint " + path);
  stepper.restore_state(decode_checkpoint(*text, stamp).state);
}

void expect_states_equal(const StepperState& a, const StepperState& b) {
  EXPECT_EQ(a.steps_consumed, b.steps_consumed);
  EXPECT_EQ(a.total_compute_s, b.total_compute_s);
  EXPECT_EQ(a.has_fabric, b.has_fabric);
  EXPECT_EQ(a.fabric_group_starts, b.fabric_group_starts);
  EXPECT_EQ(a.battery_soc, b.battery_soc);
  EXPECT_EQ(a.battery_energy_j, b.battery_energy_j);
  EXPECT_EQ(a.controller_state, b.controller_state);
  EXPECT_EQ(a.partial.energy_output_j, b.partial.energy_output_j);
  EXPECT_EQ(a.partial.steps.size(), b.partial.steps.size());
}

TEST(Checkpoint, EncodeDecodeRoundTripsBitExactly) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 9);
  const StepperState state = run.stepper->state();

  const std::vector<std::string> log = {R"({"event":"decision","time_s":0})",
                                        R"({"event":"gap","detail":"x"})"};
  const std::string text = encode_checkpoint(state, stamp, log);
  const DecodedCheckpoint decoded = decode_checkpoint(text, stamp);
  expect_states_equal(state, decoded.state);
  EXPECT_EQ(decoded.extra_lines, log);  // byte-preserved, order-preserved

  // The decoded state restores into a fresh run and continues identically.
  SteppedRun resumed = make_run(config, trace, 0);
  resumed.stepper->restore_state(decoded.state);
  SteppedRun reference = make_run(config, trace, 10);
  TraceSample sample;
  sample.time_s = 9 * trace.dt_s();
  sample.module_temps_c = trace.step_temperatures(9);
  sample.ambient_c = trace.ambient_c(9);
  resumed.stepper->step(sample);
  EXPECT_EQ(resumed.stepper->result().energy_output_j,
            reference.stepper->result().energy_output_j);
  EXPECT_EQ(resumed.stepper->result().steps.back().net_power_w,
            reference.stepper->result().steps.back().net_power_w);
}

TEST(Checkpoint, StampMismatchIsRejected) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  SteppedRun run = make_run(config, trace, 5);
  const std::string text = encode_checkpoint(
      run.stepper->state(), stream_config_fingerprint_text(config));

  // Any result-affecting field difference must refuse to resume.
  StreamConfig other = config;
  other.control_period_s *= 2.0;
  EXPECT_THROW(
      decode_checkpoint(text, stream_config_fingerprint_text(other)),
      std::runtime_error);
}

TEST(Checkpoint, RejectsNewlinesInExtraLines) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  SteppedRun run = make_run(config, trace, 3);
  EXPECT_THROW(encode_checkpoint(run.stepper->state(),
                                 stream_config_fingerprint_text(config),
                                 {"line one\nline two"}),
               std::invalid_argument);
}

TEST(Checkpoint, TruncatedAndCorruptArtifactsAreLoud) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 7);
  const std::string text = encode_checkpoint(run.stepper->state(), stamp);

  EXPECT_THROW(decode_checkpoint("", stamp), std::runtime_error);
  EXPECT_THROW(decode_checkpoint("not a checkpoint\n", stamp),
               std::runtime_error);
  // Every truncation point must throw — the `# end` terminator guarantees
  // even a cleanly-cut tail cannot pass.
  for (std::size_t cut : {text.size() / 4, text.size() / 2,
                          text.size() - 10, text.size() - 1}) {
    EXPECT_THROW(decode_checkpoint(text.substr(0, cut), stamp),
                 std::runtime_error)
        << "cut at " << cut;
  }
  // Flipping the internal step count breaks cross-validation.
  std::string inconsistent = text;
  const std::size_t pos = inconsistent.find("steps_consumed = 7");
  ASSERT_NE(pos, std::string::npos);
  inconsistent.replace(pos, 18, "steps_consumed = 6");
  EXPECT_THROW(decode_checkpoint(inconsistent, stamp), std::runtime_error);
  // A renamed step-table column is named in the error.
  std::string renamed = text;
  const std::size_t column = renamed.find(",net_power_w,");
  ASSERT_NE(column, std::string::npos);
  renamed.replace(column, 13, ",net_power_x,");
  try {
    decode_checkpoint(renamed, stamp);
    ADD_FAILURE() << "a missing column decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing column net_power_w"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------ incremental encoder

/// A carry-along line that exercises the CSV and JSON metacharacters.
std::string random_line(util::Rng& rng) {
  static const char* const kPieces[] = {"a", ",", "\"", "\\", "{}", " ", "7"};
  std::string line = R"({"event":")";
  const int n = rng.uniform_int(0, 12);
  for (int i = 0; i < n; ++i) line += kPieces[rng.uniform_int(0, 6)];
  return line + "\"}";
}

// The memoised encoder must write, at every call, exactly the bytes of a
// fresh encode_checkpoint of the same state — across steps, log appends,
// repeated encodes with nothing new, and restores to earlier snapshots.
// After a restore the encoder is either kept (only when both the table and
// the log shrank, which the staleness guard must notice) or rebuilt, as the
// stream server does.
TEST(CheckpointEncoder, MatchesOneShotEncodeThroughRandomHistories) {
  thermal::TraceGeneratorConfig trace_config;
  trace_config.layout.num_modules = 12;
  trace_config.segments = {
      {thermal::DriveSegment::Kind::kUrban, 40.0, 32.0, 0.0}};
  trace_config.seed = 21;
  const auto trace = thermal::generate_trace(trace_config);
  StreamConfig config = test_config(trace);
  config.scheme = StreamScheme::kDnor;
  const std::string stamp = stream_config_fingerprint_text(config);

  std::size_t kept_restores = 0;  // the guard's path, summed over seeds
  std::size_t fresh_restores = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    SteppedRun run = make_run(config, trace, 0);
    std::vector<std::string> log;
    std::vector<std::pair<StepperState, std::vector<std::string>>> snapshots;
    CheckpointEncoder encoder;
    std::size_t memo_rows = 0;  // rows and lines at the encoder's last call
    std::size_t memo_lines = 0;
    std::size_t encodes = 0;

    const auto encode_and_compare = [&](const char* what) {
      const StepperState state = run.stepper->state();
      ASSERT_EQ(encoder.encode(state, stamp, log),
                encode_checkpoint(state, stamp, log))
          << "seed " << seed << ", " << what << " at "
          << state.steps_consumed << " steps";
      memo_rows = state.steps_consumed;
      memo_lines = log.size();
      ++encodes;
    };

    for (int op = 0; op < 160; ++op) {
      const int kind = rng.uniform_int(0, 9);
      if (kind <= 3) {
        const int steps = rng.uniform_int(1, 3);
        for (int i = 0; i < steps; ++i) {
          const std::size_t t = run.stepper->steps_consumed();
          if (t >= trace.num_steps()) break;
          TraceSample sample;
          sample.time_s = static_cast<double>(t) * trace.dt_s();
          sample.module_temps_c = trace.step_temperatures(t);
          sample.ambient_c = trace.ambient_c(t);
          run.stepper->step(sample);
        }
      } else if (kind == 4) {
        log.push_back(random_line(rng));
      } else if (kind == 5) {
        snapshots.emplace_back(run.stepper->state(), log);
      } else if (kind <= 7) {
        encode_and_compare("encode");
        encode_and_compare("encode with nothing new");
      } else if (!snapshots.empty()) {
        const auto& [state, lines] = snapshots[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(snapshots.size()) - 1))];
        run.stepper->restore_state(state);
        log = lines;
        if (state.steps_consumed >= memo_rows || lines.size() >= memo_lines) {
          encoder = CheckpointEncoder{};
          ++fresh_restores;
        } else {
          ++kept_restores;
        }
        encode_and_compare("first encode after a restore");
      }
    }
    encode_and_compare("final encode");
    EXPECT_GT(encodes, 40u) << "seed " << seed;
  }
  EXPECT_GT(kept_restores, 0u);
  EXPECT_GT(fresh_restores, 0u);
}

TEST(CheckpointEncoder, NewlineInANewExtraLineStillThrows) {
  const auto trace = test_trace();
  const StreamConfig config = test_config(trace);
  const std::string stamp = stream_config_fingerprint_text(config);
  SteppedRun run = make_run(config, trace, 4);
  CheckpointEncoder encoder;
  std::vector<std::string> log = {"first", "second"};
  encoder.encode(run.stepper->state(), stamp, log);

  log.push_back("line one\nline two");
  EXPECT_THROW(encoder.encode(run.stepper->state(), stamp, log),
               std::invalid_argument);
  EXPECT_THROW(encode_checkpoint(run.stepper->state(), stamp, log),
               std::invalid_argument);

  // The failed call left the memo usable.
  log.back() = "line one";
  EXPECT_EQ(encoder.encode(run.stepper->state(), stamp, log),
            encode_checkpoint(run.stepper->state(), stamp, log));
}

// ------------------------------------------------------------- fault matrix

class CheckpointFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_ = std::make_unique<thermal::TemperatureTrace>(test_trace());
    config_ = test_config(*trace_);
    stamp_ = stream_config_fingerprint_text(config_);
    path_ = testing::TempDir() + "/ckpt_fault_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ckpt";
    std::remove(path_.c_str());
    run_ = make_run(config_, *trace_, 6);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  util::AtomicWriteOptions write_options(util::FaultInjector& faults) {
    util::AtomicWriteOptions options;
    options.fault_site = "stream.checkpoint";
    options.faults = &faults;
    options.retry.initial_backoff_ms = 0;
    options.retry.max_backoff_ms = 0;
    return options;
  }

  std::unique_ptr<thermal::TemperatureTrace> trace_;
  StreamConfig config_;
  std::string stamp_;
  std::string path_;
  SteppedRun run_;
};

TEST_F(CheckpointFaults, WriteFailExhaustsRetriesAndThrows) {
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.write_fail", 1, 1000);  // every attempt
  EXPECT_THROW(save(*run_.stepper, path_, stamp_, write_options(faults)),
               std::runtime_error);
  EXPECT_FALSE(util::read_file_if_exists(path_).has_value());  // nothing torn

  // A transient failure (first attempt only) is retried to success.
  util::FaultInjector transient;
  transient.arm("stream.checkpoint.write_fail", 1, 1);
  save(*run_.stepper, path_, stamp_, write_options(transient));
  SteppedRun fresh = make_run(config_, *trace_, 0);
  restore(*fresh.stepper, path_, stamp_);
  EXPECT_EQ(fresh.stepper->steps_consumed(), 6u);
}

TEST_F(CheckpointFaults, TornPublicationIsRejectedOnRestore) {
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.torn", 1, 1);
  save(*run_.stepper, path_, stamp_, write_options(faults));
  // The torn fault published a half-written prefix: restore must throw,
  // never restore a partial state.
  SteppedRun fresh = make_run(config_, *trace_, 0);
  EXPECT_THROW(restore(*fresh.stepper, path_, stamp_), std::runtime_error);
  EXPECT_EQ(fresh.stepper->steps_consumed(), 0u);  // untouched by the failure
}

TEST_F(CheckpointFaults, CrashLeavesPreviousCheckpointIntact) {
  save(*run_.stepper, path_, stamp_);  // a good generation-1 checkpoint

  // Advance, then crash mid-write of generation 2: the temp is abandoned
  // before rename, so generation 1 must still be on disk, whole.
  TraceSample sample;
  sample.time_s = 6 * trace_->dt_s();
  sample.module_temps_c = trace_->step_temperatures(6);
  sample.ambient_c = trace_->ambient_c(6);
  run_.stepper->step(sample);
  util::FaultInjector faults;
  faults.arm("stream.checkpoint.crash", 1, 1);
  EXPECT_THROW(save(*run_.stepper, path_, stamp_, write_options(faults)),
               util::AtomicWriteCrash);

  SteppedRun fresh = make_run(config_, *trace_, 0);
  restore(*fresh.stepper, path_, stamp_);
  EXPECT_EQ(fresh.stepper->steps_consumed(), 6u);  // generation 1, not 7
}

// ------------------------------------------- fingerprint field sensitivity

// Runtime twin of the lint cache-key cross-check: every result-affecting
// StreamConfig field must move the fingerprint text, and the execution hint
// must not (two machines with different core counts share checkpoints).
TEST(Checkpoint, FingerprintMovesPerResultAffectingField) {
  const StreamConfig base = [] {
    StreamConfig c;
    c.num_modules = 8;
    return c;
  }();
  const std::string fp = stream_config_fingerprint_text(base);

  StreamConfig scheme = base;
  scheme.scheme = StreamScheme::kEhtr;
  EXPECT_NE(stream_config_fingerprint_text(scheme), fp);

  StreamConfig period = base;
  period.control_period_s = 1.0;
  EXPECT_NE(stream_config_fingerprint_text(period), fp);

  StreamConfig dt = base;
  dt.dt_s = 0.25;
  EXPECT_NE(stream_config_fingerprint_text(dt), fp);

  StreamConfig modules = base;
  modules.num_modules = 9;
  EXPECT_NE(stream_config_fingerprint_text(modules), fp);

  StreamConfig physics = base;
  physics.sim.charge_overhead = !physics.sim.charge_overhead;
  EXPECT_NE(stream_config_fingerprint_text(physics), fp);

  StreamConfig battery = base;
  battery.sim.battery.capacity_ah *= 2.0;
  EXPECT_NE(stream_config_fingerprint_text(battery), fp);

  StreamConfig exec_hint = base;
  exec_hint.sim.num_threads = 7;  // execution hint: excluded by design
  EXPECT_EQ(stream_config_fingerprint_text(exec_hint), fp);
}

TEST(Checkpoint, SchemeNamesRoundTrip) {
  for (StreamScheme scheme : {StreamScheme::kDnor, StreamScheme::kInor,
                              StreamScheme::kEhtr, StreamScheme::kBaseline}) {
    EXPECT_EQ(parse_stream_scheme(stream_scheme_name(scheme)), scheme);
  }
  EXPECT_THROW(parse_stream_scheme("mppt"), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::sim
