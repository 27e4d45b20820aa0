#include "core/ehtr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/objective.hpp"
#include "core/state_codec.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/module.hpp"
#include "util/parallel.hpp"
#include "util/runtime_clock.hpp"

namespace tegrec::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Solves DP layer j (j + 1 groups) in place, columns right to left:
//
//   dp[i] <- min_{k in [j, i - 1]} dp[k] + (prefix[i] - prefix[k])^2
//
// Column i reads dp[k] only for k < i, so overwriting dp[i] once column i
// is done leaves every value a later (smaller) column needs untouched.
//
// The answer per column is the cubic oracle's: the lowest k attaining the
// minimum *rounded* cost.  The squared-segment-sum cost satisfies the
// quadrangle inequality for non-negative currents, so in exact arithmetic
// the lowest argmin is split-monotone (Knuth 1971; Yao 1980):
// opt[j-1][i] <= opt[j][i] <= opt[j][i+1].  Each column therefore scans only
// [lo, hi], with lo from the previous layer at column i and hi from column
// i + 1 of this layer.  The windows telescope: a layer costs
// O(N + sum_i (opt[j][i] - opt[j-1][i])), and the sum over layers is
// O(N * (N + layers)), against O(N^3) for the cubic oracle.
//
// Rounding can break ties differently from exact arithmetic: with
// all-equal currents, the rounded lowest argmin of a layer can sit one
// column left of the previous layer's.  So the bounds are the outermost
// *near*-argmins instead: lo is the lowest k whose rounded cost in layer
// j - 1, column i is within tau of that column's minimum, and hi is the
// highest k within tau in column i + 1 of this layer (never below its
// argmin).  tau is 4x a worst-case bound on the rounding error of every
// cost the next layer computes (derived in the constructor).  By the exact
// quadrangle inequality, a split's excess over the column minimum does not
// shrink from layer j - 1 to layer j below the previous argmin, nor from
// column i + 1 to column i above its argmin.  So every k outside the
// window sits more than twice the rounding error above some split inside
// it, and cannot be the rounded lowest argmin: the result is bit-identical
// to the full scan for every finite non-negative input.  The lower side
// counts ties as near (`<=`), because a lower tied split would win; the
// upper side need not (`<`).  On real inputs neighbouring costs differ by
// far more than tau, so the near-argmins are the argmins and the windows
// are Knuth's.
//
// The scan runs high to low with a non-strict `<=`, which picks the same
// lowest argmin as the oracle's strict `<` running low to high, and it
// records the lowest near-argmin on the way.  A short second pass from hi
// down finds the highest one.  `near_lo` holds layer j - 1's lower bounds
// on entry and layer j's on exit (all 0 for the one-group layer).
void solve_layer(const std::vector<double>& prefix, std::size_t j, double tau,
                 std::vector<double>& dp, std::uint32_t* parent,
                 std::vector<std::uint32_t>& near_lo) {
  const std::size_t count = prefix.size() - 1;
  std::size_t k_hi = count - 1;  // column N + 1 does not exist
  for (std::size_t i = count; i > j; --i) {
    k_hi = std::min(k_hi, i - 1);
    const std::size_t k_lo = std::max<std::size_t>(j, near_lo[i]);
    const double p = prefix[i];
    double best = kInf;
    // Only costs overflowing to inf can empty the window; k_hi is still a
    // legal split then.
    std::size_t best_k = k_hi;
    std::size_t lowest_near = k_hi;
    for (std::size_t k = k_hi + 1; k-- > k_lo;) {
      const double s = p - prefix[k];
      const double c = dp[k] + s * s;
      if (c <= best) {
        best = c;
        best_k = k;
      }
      if (c <= best + tau) lowest_near = k;
    }
    const double limit = best + tau;
    std::size_t highest_near = k_hi;
    for (; highest_near > best_k; --highest_near) {
      const double s = p - prefix[highest_near];
      if (dp[highest_near] + s * s < limit) break;
    }
    dp[i] = best;
    parent[i] = static_cast<std::uint32_t>(best_k);
    near_lo[i] = static_cast<std::uint32_t>(lowest_near);
    k_hi = highest_near;
  }
}

}  // namespace

PartitionTable::PartitionTable(const std::vector<double>& mpp_currents,
                               std::size_t max_groups,
                               std::size_t initial_groups)
    : count_(mpp_currents.size()), max_groups_(max_groups) {
  if (count_ == 0) throw std::invalid_argument("PartitionTable: empty input");
  if (max_groups_ == 0 || max_groups_ > count_) {
    throw std::invalid_argument("PartitionTable: bad max_groups");
  }
  if (count_ >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("PartitionTable: array too large");
  }
  prefix_.assign(count_ + 1, 0.0);
  for (std::size_t i = 0; i < count_; ++i) {
    // Rejecting NaN/inf here (not just negatives) is what lets the
    // Knuth-Yao windows promise oracle-identical results: non-finite costs
    // would break the split monotonicity that bounds every window.
    if (!std::isfinite(mpp_currents[i]) || mpp_currents[i] < 0.0) {
      throw std::invalid_argument("PartitionTable: non-finite or negative current");
    }
    prefix_[i + 1] = prefix_[i] + mpp_currents[i];
  }
  // Layer 0 (one group) is closed form; deeper layers are appended on
  // demand by extend_to, which keeps the value row and the near-argmin row
  // live between calls.  Layer j reads only layer j - 1's values and lower
  // bounds, both retained, so the split into construction + extensions
  // leaves every solved layer bit-identical to a one-shot full solve.
  dp_.assign(count_ + 1, kInf);
  for (std::size_t i = 1; i <= count_; ++i) {
    const double s = prefix_[i] - prefix_[0];
    dp_[i] = s * s;
  }
  near_lo_.assign(count_ + 1, 0);
  // Worst-case rounding of the DP (see solve_layer): with u the unit
  // roundoff and S the current total, each prefix sum errs by at most
  // N u S, each rounded squared segment sum by (4N + 5) u S^2 and each
  // addition by 2 u S^2, so a layer-m cost is within (m + 1) (4N + 7) u S^2
  // of its exact value.  Layer j's slack, 4x that bound at m = j + 1, is
  // (j + 2) * tau_step_; the step carries a further 2x headroom that
  // absorbs the rounding of the slack arithmetic itself.
  const double total = prefix_[count_];
  tau_step_ = 4.0 * (4.0 * static_cast<double>(count_) + 8.0) *
              std::numeric_limits<double>::epsilon() * total * total;
  solved_groups_ = 1;
  extend_to(initial_groups == 0 ? max_groups_ : initial_groups);
}

void PartitionTable::extend_to(std::size_t n) {
  if (n > max_groups_) n = max_groups_;
  if (n <= solved_groups_) return;
  const std::size_t stride = count_ + 1;
  // The parent arena tracks the solved depth, so an early-stopping warm
  // pass holds solved/max of the cold footprint.
  parents_.resize((n - 1) * stride, 0);
  for (std::size_t j = solved_groups_; j < n; ++j) {
    solve_layer(prefix_, j, static_cast<double>(j + 2) * tau_step_, dp_,
                parents_.data() + (j - 1) * stride, near_lo_);
  }
  solved_groups_ = n;
}

void PartitionTable::reconstruct(std::size_t n,
                                 std::vector<std::size_t>& starts) const {
  if (n == 0 || n > solved_groups_) {
    throw std::out_of_range("PartitionTable::reconstruct: bad group count");
  }
  starts.resize(n);
  const std::size_t stride = count_ + 1;
  std::size_t i = count_;
  for (std::size_t j = n; j-- > 1;) {
    const std::size_t k = parents_[(j - 1) * stride + i];
    starts[j] = k;
    i = k;
  }
  starts[0] = 0;
}

teg::ArrayConfig PartitionTable::config(std::size_t n) const {
  std::vector<std::size_t> starts;
  reconstruct(n, starts);
  return teg::ArrayConfig(std::move(starts), count_);
}

teg::ArrayConfig ehtr_search(const teg::TegArray& array,
                             const power::Converter& converter,
                             std::size_t num_threads, std::size_t max_groups,
                             const EhtrWarmStart& warm,
                             EhtrSearchStats* stats) {
  std::vector<double> impp = array.module_mpp_currents();
  // The DP only accepts finite currents; treat non-finite modules (NaN
  // temperatures, open faults) as stone cold, the same way inor_partition
  // treats dead modules.  Scoring below still sees the true NaN powers, so
  // a fully degenerate array falls back to the first candidate.
  for (double& x : impp) {
    if (!std::isfinite(x)) x = 0.0;
  }
  const std::size_t count = array.size();
  if (max_groups == 0 || max_groups > count) max_groups = count;

  // The bound needs every module's voc finite and its resistance finite
  // and positive; anything degenerate (NaN temperature spikes, open
  // faults) turns the warm pass off and the search runs the full sweep.
  const ScoreBound ceiling(array, converter);
  const bool warm_ok = max_groups > 1 && ceiling.usable();

  // First DP frontier: a neighbourhood of the incumbent group count (or of
  // the converter's efficient window when there is no incumbent yet).
  // Without a usable bound everything is solved up front.
  std::size_t initial = max_groups;
  if (warm_ok) {
    std::size_t base = warm.incumbent_groups;
    if (base == 0 || base > max_groups) {
      base = group_count_window(array, converter).nmax;
    }
    initial = std::min(max_groups, std::max<std::size_t>(1, base + warm.width));
  }
  PartitionTable table(impp, max_groups, initial);
  const teg::ArrayEvaluator evaluator(array);

  // Streamed scoring: candidates are reconstructed chunk by chunk into
  // per-chunk scratch and scored immediately — only the score table (O(N)
  // doubles) and one starts buffer per in-flight chunk stay resident,
  // never the O(N^2) materialised candidate vector.  Each n's score is
  // independent of the chunking, and the argmax below is a sequential
  // lowest-index scan, so the chosen config is bit-identical for every
  // thread count and every warm/cold schedule.
  std::vector<double> scores(max_groups, 0.0);
  const std::size_t workers =
      num_threads == 0 ? util::default_parallelism() : num_threads;
  auto score_range = [&](std::size_t lo_n, std::size_t hi_n) {
    // Scores group counts (lo_n, hi_n].  ~4 chunks per worker keeps the
    // atomic-claiming load balancer effective while amortising each
    // chunk's scratch buffer over many candidates.
    const std::size_t span = hi_n - lo_n;
    const std::size_t num_chunks =
        std::min(span, std::max<std::size_t>(1, 4 * workers));
    const std::size_t chunk_len = (span + num_chunks - 1) / num_chunks;
    util::parallel_for(num_chunks, num_threads, [&](std::size_t c) {
      const std::size_t first_n = lo_n + 1 + c * chunk_len;
      const std::size_t last_n = std::min(hi_n, first_n + chunk_len - 1);
      std::vector<std::size_t> starts;
      starts.reserve(last_n);
      for (std::size_t n = first_n; n <= last_n; ++n) {
        table.reconstruct(n, starts);
        scores[n - 1] = config_power_w(evaluator, converter, starts);
      }
    });
  };

  // Sequential lowest-index argmax over the scored prefix: deterministic
  // for every thread count.  NaN scores never beat the sentinel, so an
  // all-NaN field degrades to the first candidate instead of dereferencing
  // null.
  std::size_t best_n = 1;
  double best_power = -1.0;
  std::size_t scanned = 0;
  auto fold_argmax = [&](std::size_t upto_n) {
    for (std::size_t i = scanned; i < upto_n; ++i) {
      if (scores[i] > best_power) {
        best_power = scores[i];
        best_n = i + 1;
      }
    }
    scanned = upto_n;
  };

  std::size_t solved = table.solved_groups();
  score_range(0, solved);
  fold_argmax(solved);
  // Certified extension loop.  Any unscored n whose bound is strictly
  // below the scored best can never win: the argmax only moves on a strict
  // improvement, and an n-group config scoring at least the best would
  // score at most that bound.  So extend the DP to the largest n whose
  // bound ties or beats the best, score the new range for real, and
  // repeat; when no bound survives, the prefix argmax IS the cold argmax.
  // Worst case the frontier reaches max_groups and the warm pass has
  // performed exactly the cold computation.
  while (solved < max_groups) {
    // The band narrows as the best rises, so it is recomputed every round.
    const ScoreBound::Band band = ceiling.band(best_power);
    std::size_t frontier = max_groups;
    while (frontier > solved &&
           ceiling.bound(frontier, band) < best_power) {
      --frontier;
    }
    if (frontier == solved) break;
    table.extend_to(frontier);
    solved = table.solved_groups();
    score_range(scanned, solved);
    fold_argmax(solved);
  }

  if (stats != nullptr) {
    stats->max_groups = max_groups;
    stats->groups_certified = solved;
    stats->warm_used = warm_ok;
  }
  return table.config(best_n);
}

EhtrReconfigurer::EhtrReconfigurer(const teg::DeviceParams& device,
                                   const power::ConverterParams& converter,
                                   double period_s, std::size_t num_threads,
                                   std::size_t max_groups)
    : device_(device), converter_(converter), period_s_(period_s),
      num_threads_(num_threads), max_groups_(max_groups) {
  if (period_s <= 0.0) throw std::invalid_argument("EhtrReconfigurer: period <= 0");
}

UpdateResult EhtrReconfigurer::update(double time_s,
                                      const std::vector<double>& delta_t_k,
                                      double ambient_c) {
  UpdateResult result;
  if (has_config_ && time_s + 1e-9 < next_run_time_s_) {
    result.config = current_;
    return result;
  }
  const util::MonotonicTimer timer;
  const teg::TegArray array(device_, delta_t_k, ambient_c);
  EhtrWarmStart warm;
  warm.incumbent_groups = has_config_ ? current_.num_groups() : 0;
  teg::ArrayConfig next =
      ehtr_search(array, converter_, num_threads_, max_groups_, warm);
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

void EhtrReconfigurer::reset() {
  has_config_ = false;
  next_run_time_s_ = 0.0;
  current_ = teg::ArrayConfig();
}

AlgorithmCost EhtrReconfigurer::algorithm_cost() const {
  return AlgorithmCost::ehtr();
}

std::string EhtrReconfigurer::checkpoint_state() const {
  return detail::encode_periodic_state(
      "ehtr-v1", {next_run_time_s_, has_config_, current_});
}

void EhtrReconfigurer::restore_checkpoint_state(const std::string& state) {
  detail::PeriodicState decoded = detail::decode_periodic_state("ehtr-v1", state);
  next_run_time_s_ = decoded.next_run_time_s;
  has_config_ = decoded.has_config;
  current_ = std::move(decoded.current);
}

}  // namespace tegrec::core
