// In-memory span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public functions: name, start, end, the span that was open when it
// started (its parent) and a run id shared by every span of one scheme or
// streamed array.  Spans stay in memory while the workload runs and are
// written out when it ends, so recording costs two clock reads and a
// vector append.  Spans marked `replay` time a layer by replaying a
// controller's recorded inputs after the live run; they hang off their
// own root, so they never eat into a live span's self time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/runtime_clock.hpp"

namespace perfbench {

struct Span {
  const char* name = "";      ///< layer-qualified name, a string literal
  double start_s = 0.0;       ///< seconds since the recorder's epoch
  double end_s = 0.0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::int32_t run = 0;       ///< scheme or array the span belongs to
  bool replay = false;

  double duration_s() const { return end_s - start_s; }
};

/// Single-threaded recorder; give each thread its own and merge() them
/// after joining.
class SpanRecorder {
 public:
  explicit SpanRecorder(const tegrec::util::MonotonicTimer& epoch)
      : epoch_(&epoch) {}

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, std::int32_t run, bool replay = false);
  /// Closes the innermost open span, which must be `index`.
  void close(std::int32_t index);

  /// Adds `delta` to the named counter.
  void count(const std::string& name, double delta = 1.0) {
    counts_[name] += delta;
  }

  const std::vector<Span>& spans() const { return spans_; }
  double counter(const std::string& name) const;

  /// Appends another recorder's spans (re-indexing their parents) and
  /// adds its counters to this one's.
  void merge(const SpanRecorder& other);

 private:
  const tegrec::util::MonotonicTimer* epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, double> counts_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::int32_t run,
             bool replay = false)
      : recorder_(recorder), index_(recorder.open(name, run, replay)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// a child running past its parent counts only inside the parent).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Total and self seconds plus span count per span name.
struct NameTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::size_t spans = 0;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);

/// Writes one CSV row per span (name, start, end, parent, run, replay).
void write_spans_csv(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
