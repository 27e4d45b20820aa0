#include "core/inor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "core/state_codec.hpp"
#include "util/runtime_clock.hpp"

namespace tegrec::core {

namespace {

// Prefix sums of the MPP currents: prefix[i] = sum of the first i values.
// Zero currents (stone-cold modules) are legal; negatives are not.
std::vector<double> current_prefix(const std::vector<double>& mpp_currents) {
  std::vector<double> prefix(mpp_currents.size() + 1, 0.0);
  for (std::size_t i = 0; i < mpp_currents.size(); ++i) {
    if (mpp_currents[i] < 0.0) {
      throw std::invalid_argument("inor_partition: negative MPP current");
    }
    prefix[i + 1] = prefix[i] + mpp_currents[i];
  }
  return prefix;
}

// Writes the greedy n-group partition's starts (n in [1, N]) into `starts`,
// reusing its capacity, so a window scan allocates nothing per candidate.
void greedy_starts(const std::vector<double>& prefix, std::size_t n,
                   std::vector<std::size_t>& starts) {
  const std::size_t count = prefix.size() - 1;
  if (prefix[count] <= 0.0) {
    // Dead array: any balanced partition is as good as any other.
    starts = teg::ArrayConfig::uniform(count, n).group_starts();
    return;
  }
  const double i_ideal = prefix[count] / static_cast<double>(n);

  starts.assign(1, 0);
  std::size_t boundary = 0;  // end (exclusive) of the previous group
  for (std::size_t j = 1; j < n; ++j) {
    // Group j-1 spans [starts.back(), g).  Walk g forward while moving the
    // group sum closer to Iideal; currents are positive so the deviation is
    // unimodal in g and the scan can stop at the first worsening step.
    const double base = prefix[boundary];
    std::size_t g = boundary + 1;              // at least one module per group
    const std::size_t g_max = count - (n - j); // leave one module per later group
    while (g < g_max && std::abs(prefix[g + 1] - base - i_ideal) <=
                            std::abs(prefix[g] - base - i_ideal)) {
      ++g;
    }
    starts.push_back(g);
    boundary = g;
  }
}

}  // namespace

teg::ArrayConfig inor_partition(const std::vector<double>& mpp_currents,
                                std::size_t n) {
  const std::size_t count = mpp_currents.size();
  if (n == 0 || n > count) {
    throw std::invalid_argument("inor_partition: bad group count");
  }
  std::vector<std::size_t> starts;
  greedy_starts(current_prefix(mpp_currents), n, starts);
  return teg::ArrayConfig(std::move(starts), count);
}

teg::ArrayConfig inor_search(const teg::TegArray& array,
                             const power::Converter& converter,
                             const InorOptions& options) {
  std::size_t nmin = options.nmin;
  std::size_t nmax = options.nmax;
  if (nmin == 0 && nmax == 0) {
    const auto window = group_count_window(array, converter);
    nmin = window.nmin;
    nmax = window.nmax;
  }
  if (nmin == 0 || nmax < nmin || nmax > array.size()) {
    throw std::invalid_argument("inor_search: bad n window");
  }

  // Candidates are scored straight from their group starts (bit-identical
  // to scoring the materialised ArrayConfig); only the winner is built.
  // The scan starts at the window's geometric middle (for the derived
  // window, the count whose string MPP voltage sits nearest Vout), so the
  // best is high early; any later count whose ScoreBound falls below the
  // best so far scores below the window's maximum and is skipped.
  const std::vector<double> prefix =
      current_prefix(array.module_mpp_currents());
  const teg::ArrayEvaluator evaluator(array);
  const ScoreBound ceiling(array, converter);
  std::vector<double> scores(nmax - nmin + 1,
                             -std::numeric_limits<double>::infinity());
  std::vector<std::size_t> starts;
  double best = -1.0;
  ScoreBound::Band band = ceiling.band(best);
  auto score = [&](std::size_t n) {
    greedy_starts(prefix, n, starts);
    const double p = config_power_w(evaluator, converter, starts);
    scores[n - nmin] = p;
    if (p > best) {
      best = p;
      band = ceiling.band(best);
    }
  };
  const auto middle = static_cast<std::size_t>(std::llround(
      std::sqrt(static_cast<double>(nmin) * static_cast<double>(nmax))));
  const std::size_t seed = std::clamp(middle, nmin, nmax);
  score(seed);
  for (std::size_t n = nmin; n <= nmax; ++n) {
    if (n == seed) continue;
    if (ceiling.usable() && ceiling.bound(n, band) < best) continue;
    score(n);
  }
  // The lowest-index strict argmax, as an in-order scan picks it; skipped
  // counts stay at -inf, and none scores above the sentinel on an all-NaN
  // field, which leaves the empty config.
  std::size_t chosen = 0;
  double top = -1.0;
  for (std::size_t n = nmin; n <= nmax; ++n) {
    if (scores[n - nmin] > top) {
      top = scores[n - nmin];
      chosen = n;
    }
  }
  if (chosen == 0) return teg::ArrayConfig();
  greedy_starts(prefix, chosen, starts);
  return teg::ArrayConfig(std::move(starts), array.size());
}

InorReconfigurer::InorReconfigurer(const teg::DeviceParams& device,
                                   const power::ConverterParams& converter,
                                   double period_s, const InorOptions& options)
    : device_(device), converter_(converter), period_s_(period_s),
      options_(options) {
  if (period_s <= 0.0) throw std::invalid_argument("InorReconfigurer: period <= 0");
}

UpdateResult InorReconfigurer::update(double time_s,
                                      const std::vector<double>& delta_t_k,
                                      double ambient_c) {
  UpdateResult result;
  if (has_config_ && time_s + 1e-9 < next_run_time_s_) {
    result.config = current_;
    return result;  // between periods: hold
  }
  const util::MonotonicTimer timer;
  const teg::TegArray array(device_, delta_t_k, ambient_c);
  teg::ArrayConfig next = inor_search(array, converter_, options_);
  result.compute_time_s = timer.seconds();
  result.invoked = true;
  result.switched = !has_config_ || next != current_;
  result.actuate = true;  // periodic scheme: rebuild on every invocation
  current_ = std::move(next);
  has_config_ = true;
  next_run_time_s_ = time_s + period_s_;
  result.config = current_;
  return result;
}

void InorReconfigurer::reset() {
  has_config_ = false;
  next_run_time_s_ = 0.0;
  current_ = teg::ArrayConfig();
}

std::string InorReconfigurer::checkpoint_state() const {
  return detail::encode_periodic_state(
      "inor-v1", {next_run_time_s_, has_config_, current_});
}

void InorReconfigurer::restore_checkpoint_state(const std::string& state) {
  detail::PeriodicState decoded = detail::decode_periodic_state("inor-v1", state);
  next_run_time_s_ = decoded.next_run_time_s;
  has_config_ = decoded.has_config;
  current_ = std::move(decoded.current);
}

}  // namespace tegrec::core
