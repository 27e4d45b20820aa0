#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles: no values");
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
  // j = i*m // 4 clamped to [1, n-1], interpolated by delta = i*m - 4j.
  const std::size_t m = ld + 1;
  std::array<double, 3> out{};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: no values");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p must be in (0, 100]");
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double highest_supported_percentile(std::size_t count, std::size_t min_beyond) {
  constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0};
  for (double p : kLadder) {
    const double beyond = static_cast<double>(count) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return p;
  }
  return 50.0;
}

namespace {

/// A `/proc/self/status` field in MB (the kernel reports kB), or -1.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(field.size())) / 1024.0;
  }
  return -1.0;
}

}  // namespace

double peak_rss_mb() {
  const double peak = status_mb("VmHWM:");
  if (peak >= 0.0) return peak;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double current_rss_mb() { return std::max(status_mb("VmRSS:"), 0.0); }

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // "reset the peak resident set size", proc(5)
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace perfbench
