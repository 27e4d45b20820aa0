// Order statistics the benchmark reports: medians, quartiles and
// nearest-rank percentiles, plus process peak RSS.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own spread check agrees with an external one.
/// Needs at least one value.
std::array<double, 3> quartiles(std::vector<double> values);

/// Nearest-rank percentile `p` in (0, 100] of `values`.
double percentile(std::vector<double> values, double p);

/// The highest of the percentiles p50, p90, p99, p99.9 and p99.99 that
/// still has at least `min_beyond` samples above it among `count` samples
/// (p50 when none has).  A tail percentile resting on fewer samples is a
/// handful of outliers, not a statistic.
double highest_supported_percentile(std::size_t count,
                                    std::size_t min_beyond = 10);

/// Peak resident set size of this process [MB] since start-up or since
/// the last reset_peak_rss().
double peak_rss_mb();

/// Current resident set size of this process [MB].
double current_rss_mb();

/// Restarts the peak-RSS high-water mark from the current RSS, so memory
/// used only to generate a workload's inputs stays out of the figure.
/// Returns false where the kernel does not support it (the peak then
/// covers the whole process lifetime).
bool reset_peak_rss();

}  // namespace perfbench
