// LineTelemetrySource: the incremental CSV parser must match load_csv's
// rigor line for line (malformed input throws, nothing is silently
// skipped) while surfacing the stream-order conditions a batch loader
// cannot have — gaps, out-of-order lines, stalls — as explicit events.
#include "sim/telemetry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tegrec::sim {
namespace {

/// Builds a source over a StringFeed pre-loaded with `bytes`; the feed
/// pointer stays usable for incremental pushes.
std::pair<StringFeed*, std::unique_ptr<LineTelemetrySource>> make_source(
    const std::string& bytes, TelemetryOptions options = {}) {
  auto feed = std::make_unique<StringFeed>();
  feed->push(bytes);
  StringFeed* raw = feed.get();
  auto source = std::make_unique<LineTelemetrySource>(std::move(feed),
                                                      std::move(options));
  return {raw, std::move(source)};
}

const std::string kHeader = "time_s,ambient_c,t0,t1\n";

std::string row(double t, double ambient, double a, double b) {
  return std::to_string(t) + "," + std::to_string(ambient) + "," +
         std::to_string(a) + "," + std::to_string(b) + "\n";
}

TEST(Telemetry, ParsesGridAndSamplesFromScratch) {
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31) +
                                    row(0.5, 25, 32, 33) +
                                    row(1.0, 25, 34, 35));
  feed->close();
  EXPECT_FALSE(source->grid_resolved());

  std::vector<TraceSample> samples;
  while (true) {
    const TelemetryEvent event = source->poll();
    if (event.kind == TelemetryEvent::Kind::kEnd) break;
    ASSERT_EQ(event.kind, TelemetryEvent::Kind::kSample);
    EXPECT_TRUE(event.issues.empty());
    samples.push_back(event.sample);
  }
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(source->grid_resolved());
  EXPECT_EQ(source->dt_s(), 0.5);        // derived from the first two lines
  EXPECT_EQ(source->num_modules(), 2u);  // derived from the header
  EXPECT_EQ(samples[0].time_s, 0.0);
  EXPECT_EQ(samples[2].time_s, 1.0);
  EXPECT_EQ(samples[1].module_temps_c, (std::vector<double>{32.0, 33.0}));
  EXPECT_EQ(source->samples_emitted(), 3u);
}

TEST(Telemetry, SamplesArriveIncrementallyAcrossPartialLines) {
  auto [feed, source] = make_source(kHeader);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kIdle);
  feed->push("0,25,30,");       // half a line
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kIdle);
  feed->push("31\n0.5,25,32,33\n");
  EXPECT_EQ(source->poll().kind,
            TelemetryEvent::Kind::kSample);  // dt resolved: parked line out
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  // A final sample whose line never got its newline still counts at EOF.
  feed->push("1,25,34,35");
  feed->close();
  const TelemetryEvent last = source->poll();
  ASSERT_EQ(last.kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(last.sample.time_s, 1.0);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kEnd);
}

TEST(Telemetry, ExplicitGridChecksHeaderAgainstOptions) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.num_modules = 2;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
  feed->close();
  // With dt explicit there is no parking: the first line flows through.
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);

  TelemetryOptions wrong;
  wrong.num_modules = 3;  // header says 2
  auto [feed2, source2] = make_source(kHeader + row(0.0, 25, 30, 31), wrong);
  feed2->close();
  EXPECT_THROW(source2->poll(), std::runtime_error);
}

TEST(Telemetry, GapIsFilledByHoldingLastSample) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.gap_policy = GapPolicy::kHoldLast;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);  // t=0
  feed->push(row(2.0, 26, 38, 39));  // grid indices 1..3 never arrive
  feed->close();
  const TelemetryEvent filled = source->poll();
  ASSERT_EQ(filled.kind, TelemetryEvent::Kind::kSample);  // t=0.5, held
  ASSERT_EQ(filled.issues.size(), 1u);
  EXPECT_EQ(filled.issues[0].kind, TelemetryIssue::Kind::kGap);
  EXPECT_EQ(filled.sample.module_temps_c,
            (std::vector<double>{30.0, 31.0}));  // last sample held
  EXPECT_EQ(source->poll().sample.time_s, 1.0);  // second held fill
  EXPECT_EQ(source->poll().sample.time_s, 1.5);  // third held fill
  const TelemetryEvent real = source->poll();
  EXPECT_EQ(real.sample.time_s, 2.0);            // the line that arrived
  EXPECT_EQ(real.sample.module_temps_c, (std::vector<double>{38.0, 39.0}));
  EXPECT_EQ(source->samples_emitted(), 5u);      // fills count as emitted
}

TEST(Telemetry, GapRejectPolicyThrows) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.gap_policy = GapPolicy::kReject;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31), options);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  feed->push(row(1.5, 25, 32, 33));  // skips indices 1 and 2
  feed->close();
  EXPECT_THROW(source->poll(), std::runtime_error);
}

TEST(Telemetry, OutOfOrderLineIsDroppedAndReported) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  auto [feed, source] = make_source(
      kHeader + row(0.0, 25, 30, 31) + row(0.5, 25, 32, 33), options);
  EXPECT_EQ(source->poll().sample.time_s, 0.0);
  EXPECT_EQ(source->poll().sample.time_s, 0.5);
  feed->push(row(0.0, 25, 90, 90));  // a stale duplicate from the transport
  feed->push(row(1.0, 25, 34, 35));
  feed->close();
  const TelemetryEvent event = source->poll();  // stale line folds into this
  ASSERT_EQ(event.kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(event.sample.time_s, 1.0);
  EXPECT_EQ(event.sample.module_temps_c, (std::vector<double>{34.0, 35.0}));
  ASSERT_EQ(event.issues.size(), 1u);
  EXPECT_EQ(event.issues[0].kind, TelemetryIssue::Kind::kOutOfOrder);
  EXPECT_EQ(source->samples_emitted(), 3u);
}

TEST(Telemetry, MalformedLinesThrowNamingTheLine) {
  const auto expect_throw_on = [](const std::string& bytes) {
    auto [feed, source] = make_source(bytes);
    feed->close();
    EXPECT_THROW(
        {
          while (source->poll().kind != TelemetryEvent::Kind::kEnd) {
          }
        },
        std::runtime_error)
        << bytes;
  };
  expect_throw_on("wrong,header,t0,t1\n");                    // bad header
  expect_throw_on(kHeader + "0,25,30\n");                     // short row
  expect_throw_on(kHeader + "0,25,30,31,7\n");                // long row
  expect_throw_on(kHeader + "0,25,nan,31\n");                 // non-finite
  expect_throw_on(kHeader + "0,25,abc,31\n");                 // non-numeric
  expect_throw_on(kHeader + row(0, 25, 30, 31) +
                  row(0, 25, 30, 31));                        // dt == 0
  // A derived grid only absorbs writer rounding: 0.76 is nowhere near a
  // multiple of the derived dt = 0.5.
  expect_throw_on(kHeader + row(0, 25, 30, 31) + row(0.5, 25, 32, 33) +
                  row(0.76, 25, 34, 35));                     // off-grid
  // An explicit dt snaps any stamp to its nearest grid point, but a stamp
  // before the pinned epoch has no grid point to snap to, and neither has
  // one whose grid index is past 2^53 (not exactly representable).
  TelemetryOptions pinned;
  pinned.dt_s = 0.5;
  pinned.num_modules = 2;
  pinned.epoch_s = 0.0;
  for (const double t : {-0.5 /* pre-epoch */, 1e300 /* index ~2e300 */}) {
    auto [feed, source] = make_source(kHeader + row(t, 25, 30, 31), pinned);
    feed->close();
    EXPECT_THROW(source->poll(), std::runtime_error) << t;
  }
}

// The resume contract: with an epoch pinned and a start index, replayed
// history is silently dropped (counted, not an incident) and the stream
// rejoins exactly where the restored stepper needs it.
TEST(Telemetry, ResumeSkipsReplayedHistorySilently) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.num_modules = 2;
  options.epoch_s = 0.0;
  options.start_index = 2;
  auto [feed, source] = make_source(kHeader + row(0.0, 25, 30, 31) +
                                        row(0.5, 25, 32, 33) +
                                        row(1.0, 25, 34, 35) +
                                        row(1.5, 25, 36, 37),
                                    options);
  feed->close();
  const TelemetryEvent first = source->poll();
  ASSERT_EQ(first.kind, TelemetryEvent::Kind::kSample);
  EXPECT_TRUE(first.issues.empty());  // replay is not an incident
  EXPECT_EQ(first.sample.time_s, 1.0);
  EXPECT_EQ(source->poll().sample.time_s, 1.5);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kEnd);
  EXPECT_EQ(source->replayed(), 2u);
  EXPECT_EQ(source->samples_emitted(), 2u);
}

// A stream that rejoins *after* the resume point has a leading gap with
// nothing to hold — that must be loud under either policy.
TEST(Telemetry, ResumeRejoiningPastStartIndexIsLoud) {
  TelemetryOptions options;
  options.dt_s = 0.5;
  options.num_modules = 2;
  options.epoch_s = 0.0;
  options.start_index = 2;
  auto [feed, source] =
      make_source(kHeader + row(2.0, 25, 34, 35), options);  // index 4 > 2
  feed->close();
  EXPECT_THROW(source->poll(), std::runtime_error);
}

TEST(Telemetry, BlankLinesAreTolerated) {
  auto [feed, source] = make_source(kHeader + "\n" + row(0.0, 25, 30, 31) +
                                    "\n" + row(0.5, 25, 32, 33));
  feed->close();
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kSample);
  EXPECT_EQ(source->poll().kind, TelemetryEvent::Kind::kEnd);
}

TEST(Telemetry, StringFeedReportsLifecycle) {
  StringFeed feed;
  std::string chunk;
  EXPECT_EQ(feed.poll(chunk), ByteFeed::Status::kIdle);
  feed.push("abc");
  EXPECT_EQ(feed.poll(chunk), ByteFeed::Status::kData);
  EXPECT_EQ(chunk, "abc");
  feed.close();
  EXPECT_EQ(feed.poll(chunk), ByteFeed::Status::kEnd);
}

}  // namespace
}  // namespace tegrec::sim
