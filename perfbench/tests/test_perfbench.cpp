// Unit tests for the benchmark's own arithmetic and its correctness gate.
//
//   cmake --build .bench_build --target perfbench_tests
//   ./.bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "gate.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Expected values from Python: statistics.quantiles(data, n=4).
TEST(Stats, QuartilesMatchPythonStatistics) {
  const auto ten = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten[0], 2.75);
  EXPECT_DOUBLE_EQ(ten[1], 5.5);
  EXPECT_DOUBLE_EQ(ten[2], 8.25);

  const auto two = quartiles({2.0, 1.0});  // cut points extrapolate
  EXPECT_DOUBLE_EQ(two[0], 0.75);
  EXPECT_DOUBLE_EQ(two[1], 1.5);
  EXPECT_DOUBLE_EQ(two[2], 2.25);

  const auto three = quartiles({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(three[0], 1.0);
  EXPECT_DOUBLE_EQ(three[1], 3.0);
  EXPECT_DOUBLE_EQ(three[2], 5.0);

  const auto six = quartiles({0.3, 0.1, 0.4, 0.2, 0.9, 0.5});
  EXPECT_NEAR(six[0], 0.175, 1e-15);
  EXPECT_NEAR(six[1], 0.35, 1e-15);
  EXPECT_NEAR(six[2], 0.6, 1e-15);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(values, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(values, 99.9), 100.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);
  EXPECT_THROW(percentile(values, 0.0), std::invalid_argument);
}

// The highest percentile reported must keep at least ten samples above it.
TEST(Stats, HighestSupportedPercentileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(highest_supported_percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(57600), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100000), 99.99);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000, 20), 90.0);
}

Span make_span(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start_s = start;
  s.end_s = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildrenInsideTheParent) {
  const std::vector<Span> spans = {
      make_span("step", 0.0, 10.0, -1),
      make_span("a", 1.0, 3.0, 0),
      make_span("b", 2.0, 5.0, 0),    // overlaps a: [1, 5] counts once
      make_span("c", 8.0, 12.0, 0),   // runs past the parent: only [8, 10]
      make_span("d", 2.5, 3.5, 2),    // grandchild: b's business, not step's
      make_span("replay", 0.0, 4.0, -1),  // own root: never subtracted
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  EXPECT_DOUBLE_EQ(self[5], 4.0);

  const auto totals = totals_by_name(spans);
  EXPECT_DOUBLE_EQ(totals.at("step").total_s, 10.0);
  EXPECT_DOUBLE_EQ(totals.at("step").self_s, 4.0);
  EXPECT_EQ(totals.at("a").spans, 1u);
}

TEST(Spans, RecorderNestsAndMergesWithReindexedParents) {
  const tegrec::util::MonotonicTimer epoch;
  SpanRecorder first(epoch);
  {
    const ScopedSpan outer(first, "outer", 0);
    const ScopedSpan inner(first, "inner", 0);
  }
  first.count("things", 2.0);
  SpanRecorder second(epoch);
  {
    const ScopedSpan outer(second, "outer", 1);
    const ScopedSpan inner(second, "inner", 1, true);
  }
  second.count("things", 3.0);

  first.merge(second);
  const auto& spans = first.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[3].run, 1);
  EXPECT_TRUE(spans[3].replay);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[1].end_s);
  EXPECT_DOUBLE_EQ(first.counter("things"), 5.0);
  EXPECT_DOUBLE_EQ(first.counter("absent"), 0.0);
}

TEST(Spans, ClosingOutOfOrderThrows) {
  const tegrec::util::MonotonicTimer epoch;
  SpanRecorder recorder(epoch);
  const auto outer = recorder.open("outer", 0);
  recorder.open("inner", 0);
  EXPECT_THROW(recorder.close(outer), std::logic_error);
}

tegrec::sim::SimulationResult small_result() {
  tegrec::sim::SimulationResult r;
  r.algorithm = "DNOR";
  for (int i = 0; i < 3; ++i) {
    tegrec::sim::StepRecord s;
    s.time_s = 0.5 * i;
    s.gross_power_w = 10.0 + i;
    s.net_power_w = 9.5 + i;
    s.ideal_power_w = 12.0 + i;
    s.invoked = i == 0;
    s.switched = i == 0;
    s.compute_time_s = 1e-4 * (i + 1);
    r.steps.push_back(s);
  }
  r.energy_output_j = 15.75;
  r.ideal_energy_j = 19.5;
  r.num_invocations = 1;
  return r;
}

TEST(Gate, SameDecisionsIgnoresMeasuredComputeTimeOnly) {
  const auto a = small_result();
  auto b = a;
  b.steps[1].compute_time_s *= 3.0;
  b.avg_runtime_ms = 42.0;
  EXPECT_TRUE(same_decisions(a, b));
  EXPECT_EQ(result_digest({a}), result_digest({b}));

  b.steps[2].switched = true;
  EXPECT_FALSE(same_decisions(a, b));
  auto c = a;
  c.final_soc = std::nextafter(c.final_soc, 1.0);
  EXPECT_FALSE(same_decisions(a, c));
}

TEST(Gate, FiresOnAPerturbedResultDigest) {
  const auto result = small_result();
  const std::string digest = result_digest({result}, {"{\"event\":\"decision\"}"});
  const DigestTable table = parse_digest_table(
      "# recorded digests\n\nbatch_kiln 7 " + digest + "  # seed 7\n");

  Gate good;
  good.check_digest(table, "batch_kiln", 7, digest);
  EXPECT_TRUE(good.correct());
  EXPECT_EQ(good.digest_status(), "match");

  auto perturbed = result;
  perturbed.steps[1].net_power_w = std::nextafter(perturbed.steps[1].net_power_w, 0.0);
  const std::string wrong = result_digest({perturbed}, {"{\"event\":\"decision\"}"});
  ASSERT_NE(wrong, digest);
  Gate bad;
  bad.check_digest(table, "batch_kiln", 7, wrong);
  EXPECT_FALSE(bad.correct());
  EXPECT_EQ(bad.digest_status(), "mismatch");

  // A changed decision log alone also moves the digest.
  EXPECT_NE(result_digest({result}, {"{\"event\":\"decision\"} "}), digest);

  Gate unrecorded;
  unrecorded.check_digest(table, "batch_kiln", 8, wrong);
  EXPECT_TRUE(unrecorded.correct());
  EXPECT_EQ(unrecorded.digest_status(), "unrecorded");
}

// A run whose seed is unrecorded checks a recorded seed instead.
TEST(Gate, RecordedSeedStandsInForAnUnrecordedOne) {
  const DigestTable table = parse_digest_table(
      "batch_kiln 0 aa\nbatch_kiln 1 bb\nbatch_kiln 2 cc\nstream_drive_ckpt 5 dd\n");
  EXPECT_EQ(recorded_seed(table, "batch_kiln", 1234), std::optional<std::uint64_t>(1));
  EXPECT_EQ(recorded_seed(table, "batch_kiln", 1235), std::optional<std::uint64_t>(2));
  EXPECT_EQ(recorded_seed(table, "stream_drive_ckpt", 77), std::optional<std::uint64_t>(5));
  EXPECT_FALSE(recorded_seed(table, "batch_boiler", 0).has_value());
}

TEST(Gate, DigestTableRejectsMalformedLines) {
  EXPECT_THROW(parse_digest_table("batch_kiln 7\n"), std::runtime_error);
  EXPECT_THROW(parse_digest_table("batch_kiln 7 abc extra\n"), std::runtime_error);
  EXPECT_TRUE(parse_digest_table("# only a comment\n\n").empty());
}

}  // namespace
}  // namespace perfbench
