// StreamServer: concurrent multi-array tracking over live telemetry.
// These tests drive the server in-process with StringFeeds so TSan and the
// clang thread-safety job can watch the emitter mutex and per-array
// threads; the shell smoke (tests/stream_smoke.sh) covers the real
// process/signal matrix.
#include "sim/stream_server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "thermal/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace tegrec::sim {
namespace {

thermal::TemperatureTrace test_trace() {
  thermal::TraceGeneratorConfig config;
  config.layout.num_modules = 12;
  config.segments = {{thermal::DriveSegment::Kind::kUrban, 12.0, 32.0, 0.0}};
  config.seed = 9;
  return thermal::generate_trace(config);
}

/// The trace's CSV text, via save_csv (the exact dialect the telemetry
/// layer parses).
std::string trace_csv(const thermal::TemperatureTrace& trace) {
  const std::string path = testing::TempDir() + "/stream_server_trace.csv";
  trace.save_csv(path);
  const auto text = util::read_file_if_exists(path);
  std::remove(path.c_str());
  return text.value();
}

/// First `rows` data lines of the CSV (plus header).
std::string csv_prefix(const std::string& csv, std::size_t rows) {
  std::string out;
  std::size_t line = 0;
  std::size_t start = 0;
  while (line < rows + 1 && start < csv.size()) {
    const std::size_t nl = csv.find('\n', start);
    out += csv.substr(start, nl - start + 1);
    start = nl + 1;
    ++line;
  }
  return out;
}

std::unique_ptr<StringFeed> feed_of(const std::string& bytes) {
  auto feed = std::make_unique<StringFeed>();
  feed->push(bytes);
  feed->close();
  return feed;
}

StreamConfig explicit_config(const thermal::TemperatureTrace& trace,
                             StreamScheme scheme = StreamScheme::kDnor) {
  StreamConfig config;
  config.scheme = scheme;
  config.dt_s = trace.dt_s();
  config.num_modules = trace.num_modules();
  config.sim.num_threads = 1;
  return config;
}

struct Capture {
  std::vector<std::string> lines;
  std::vector<std::string> warnings;
  LineSink sink() {
    return [this](const std::string& line) { lines.push_back(line); };
  }
  util::WarnFn warn() {
    return [this](const std::string& message) { warnings.push_back(message); };
  }
};

// Three arrays with three schemes share one emitter; every line must be a
// well-formed, single-line JSON object tagged with a known array name, and
// every array must consume the full stream independently.
TEST(StreamServer, TracksMultipleArraysConcurrently) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  const std::vector<std::pair<std::string, StreamScheme>> arrays = {
      {"north", StreamScheme::kDnor},
      {"south", StreamScheme::kInor},
      {"roof", StreamScheme::kBaseline}};
  for (const auto& [name, scheme] : arrays) {
    StreamArrayOptions array;
    array.name = name;
    array.config = explicit_config(trace, scheme);
    array.feed = feed_of(csv);
    server.add_array(std::move(array));
  }
  const std::vector<StreamArrayReport> reports = server.run();

  ASSERT_EQ(reports.size(), 3u);
  std::set<std::string> names;
  for (const StreamArrayReport& report : reports) {
    EXPECT_TRUE(report.error.empty()) << report.name << ": " << report.error;
    EXPECT_EQ(report.result.steps.size(), trace.num_steps()) << report.name;
    EXPECT_EQ(report.step_latency_ms.count(), trace.num_steps())
        << report.name;
    EXPECT_GT(report.step_latency_ms.max(), 0.0) << report.name;
    EXPECT_EQ(report.gaps, 0u);
    EXPECT_EQ(report.out_of_order, 0u);
    names.insert(report.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"north", "south", "roof"}));
  EXPECT_TRUE(capture.warnings.empty());
  ASSERT_FALSE(capture.lines.empty());
  for (const std::string& line : capture.lines) {
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const util::json::Value value = util::json::parse(line);  // throws if bad
    (void)value;
    EXPECT_TRUE(line.find("\"array\":\"north\"") != std::string::npos ||
                line.find("\"array\":\"south\"") != std::string::npos ||
                line.find("\"array\":\"roof\"") != std::string::npos)
        << line;
  }
}

// A checkpoint write failure must cost durability, not availability: one
// warning, checkpointing off, and the stream runs to completion anyway.
TEST(StreamServer, CheckpointWriteFailureDegradesGracefully) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  const std::string ckpt = testing::TempDir() + "/degrade.ckpt";
  std::remove(ckpt.c_str());

  util::FaultInjector faults;
  faults.arm("stream.checkpoint.write_fail", 1, 1000000);  // every attempt
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config = explicit_config(trace);
  array.feed = feed_of(csv);
  array.checkpoint_path = ckpt;
  array.checkpoint_every_steps = 3;
  array.faults = &faults;
  server.add_array(std::move(array));
  const std::vector<StreamArrayReport> reports = server.run();

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].error.empty()) << reports[0].error;
  EXPECT_EQ(reports[0].result.steps.size(), trace.num_steps());  // kept going
  EXPECT_TRUE(reports[0].checkpointing_disabled);
  EXPECT_FALSE(util::read_file_if_exists(ckpt).has_value());
  std::size_t degrade_warnings = 0;
  for (const std::string& warning : capture.warnings) {
    if (warning.find("checkpoint write failed") != std::string::npos) {
      ++degrade_warnings;
    }
  }
  EXPECT_EQ(degrade_warnings, 1u);  // warn once, not once per period
}

// The durability contract, in-process: interrupt a stream after a prefix,
// resume against the checkpoint with the stream re-fed from the start, and
// the concatenation of restored log + new lines is byte-identical to an
// uninterrupted run's log.
TEST(StreamServer, ResumeReproducesUninterruptedDecisionLog) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  const std::string ckpt = testing::TempDir() + "/resume.ckpt";
  std::remove(ckpt.c_str());

  // Reference: the uninterrupted run.
  Capture full;
  {
    StreamServerOptions options;
    options.warn = full.warn();
    StreamServer server(full.sink(), options);
    StreamArrayOptions array;
    array.config = explicit_config(trace);
    array.feed = feed_of(csv);
    server.add_array(std::move(array));
    const auto reports = server.run();
    ASSERT_TRUE(reports[0].error.empty()) << reports[0].error;
  }

  // First process: sees only a prefix, checkpoints, "dies" at stream end.
  const std::size_t cut = trace.num_steps() / 2;
  Capture before;
  {
    StreamServerOptions options;
    options.warn = before.warn();
    StreamServer server(before.sink(), options);
    StreamArrayOptions array;
    array.config = explicit_config(trace);
    array.feed = feed_of(csv_prefix(csv, cut));
    array.checkpoint_path = ckpt;
    array.checkpoint_every_steps = 2;
    server.add_array(std::move(array));
    const auto reports = server.run();
    ASSERT_TRUE(reports[0].error.empty()) << reports[0].error;
    ASSERT_EQ(reports[0].result.steps.size(), cut);
  }

  // Second process: resumes and is re-fed the whole stream from t = 0.
  Capture after;
  std::vector<std::string> restored;
  {
    StreamServerOptions options;
    options.warn = after.warn();
    StreamServer server(after.sink(), options);
    StreamArrayOptions array;
    array.config = explicit_config(trace);
    array.feed = feed_of(csv);
    array.checkpoint_path = ckpt;
    array.resume = true;
    array.on_resume = [&restored](const std::vector<std::string>& lines) {
      restored = lines;
    };
    server.add_array(std::move(array));
    const auto reports = server.run();
    ASSERT_TRUE(reports[0].error.empty()) << reports[0].error;
    EXPECT_TRUE(reports[0].resumed);
    EXPECT_EQ(reports[0].replayed, cut);  // prefix silently skipped
    EXPECT_EQ(reports[0].result.steps.size(), trace.num_steps());
  }

  EXPECT_EQ(restored, before.lines);  // the log survived the "death" intact
  std::vector<std::string> stitched = restored;
  stitched.insert(stitched.end(), after.lines.begin(), after.lines.end());
  EXPECT_EQ(stitched, full.lines);  // byte-identical to never having died
  std::remove(ckpt.c_str());
}

// The server's memoised checkpoint encoder writes the bytes of the
// one-shot codec: the final file equals encode_checkpoint of the live
// run's result and decision log, after four saves (every 7 steps, then on
// exit) that each appended to the memo.
TEST(StreamServer, FinalCheckpointEqualsOneShotEncode) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  const std::string ckpt = testing::TempDir() + "/one_shot.ckpt";
  std::remove(ckpt.c_str());

  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config = explicit_config(trace);
  array.feed = feed_of(csv);
  array.checkpoint_path = ckpt;
  array.checkpoint_every_steps = 7;
  server.add_array(std::move(array));
  const std::vector<StreamArrayReport> reports = server.run();
  ASSERT_TRUE(reports[0].error.empty()) << reports[0].error;
  ASSERT_GT(trace.num_steps(), 21u);
  ASSERT_FALSE(capture.lines.empty());

  const std::string stamp =
      stream_config_fingerprint_text(explicit_config(trace));
  const std::optional<std::string> text = util::read_file_if_exists(ckpt);
  ASSERT_TRUE(text.has_value());
  // The scalars and controller blob come from the file; the step table and
  // the log come from the live run.
  StepperState state = decode_checkpoint(*text, stamp).state;
  state.partial = reports[0].result;
  EXPECT_EQ(*text, encode_checkpoint(state, stamp, capture.lines));
  std::remove(ckpt.c_str());
}

// Resuming against garbage must fail the array loudly — a silent fresh
// start would discard the operator's history.
TEST(StreamServer, CorruptCheckpointFailsTheArrayLoudly) {
  const auto trace = test_trace();
  const std::string ckpt = testing::TempDir() + "/corrupt.ckpt";
  util::atomic_write_file(ckpt, "these are not the droids\n");
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config = explicit_config(trace);
  array.feed = feed_of(trace_csv(trace));
  array.checkpoint_path = ckpt;
  array.resume = true;
  server.add_array(std::move(array));
  const auto reports = server.run();
  EXPECT_FALSE(reports[0].error.empty());
  EXPECT_NE(reports[0].error.find("checkpoint"), std::string::npos);
  std::remove(ckpt.c_str());
}

// Resume requires the grid up front: the stamp must be validated before
// any data flows, so a derive-from-stream config cannot resume.
TEST(StreamServer, ResumeWithoutExplicitGridIsAnError) {
  const auto trace = test_trace();
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config.scheme = StreamScheme::kDnor;  // dt_s / num_modules unset
  array.config.dt_s = 0.0;
  array.feed = feed_of(trace_csv(trace));
  array.checkpoint_path = testing::TempDir() + "/nogrid.ckpt";
  array.resume = true;
  server.add_array(std::move(array));
  const auto reports = server.run();
  EXPECT_FALSE(reports[0].error.empty());
  EXPECT_NE(reports[0].error.find("explicit grid"), std::string::npos);
}

// An idle stream trips the stall warning (once per episode) and the idle
// exit; the grid can be derived from the stream itself along the way.
TEST(StreamServer, StallWarnsOnceAndIdleExitEndsTheRun) {
  const auto trace = test_trace();
  const std::string csv = trace_csv(trace);
  auto feed = std::make_unique<StringFeed>();
  feed->push(csv);  // full stream delivered, but the feed never closes
  Capture capture;
  StreamServerOptions options;
  options.warn = capture.warn();
  options.poll_ms = 2;
  options.stall_timeout_ms = 10;
  options.idle_exit_ms = 60;
  StreamServer server(capture.sink(), options);
  StreamArrayOptions array;
  array.config.scheme = StreamScheme::kInor;
  array.config.dt_s = 0.0;       // derive from the stream
  array.config.num_modules = 0;  // likewise
  array.feed = std::move(feed);
  server.add_array(std::move(array));
  const auto reports = server.run();

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].error.empty()) << reports[0].error;
  EXPECT_EQ(reports[0].result.steps.size(), trace.num_steps());
  EXPECT_EQ(reports[0].stalls, 1u);
  std::size_t stall_warnings = 0;
  for (const std::string& warning : capture.warnings) {
    if (warning.find("no telemetry") != std::string::npos) ++stall_warnings;
  }
  EXPECT_EQ(stall_warnings, 1u);
}

TEST(StreamServer, RejectsBadConfigurations) {
  Capture capture;
  StreamServer server(capture.sink());
  EXPECT_THROW(server.run(), std::logic_error);  // no arrays

  StreamServer dupes(capture.sink());
  StreamArrayOptions a;
  a.feed = std::make_unique<StringFeed>();
  dupes.add_array(std::move(a));
  StreamArrayOptions b;
  b.feed = std::make_unique<StringFeed>();
  EXPECT_THROW(dupes.add_array(std::move(b)),
               std::invalid_argument);  // duplicate name "main"

  StreamArrayOptions no_feed;
  no_feed.name = "other";
  EXPECT_THROW(dupes.add_array(std::move(no_feed)), std::invalid_argument);
}

}  // namespace
}  // namespace tegrec::sim
