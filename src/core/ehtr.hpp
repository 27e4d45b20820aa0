// EHTR — Efficient Heuristic TEG Reconfiguration (prior work, Baek et al.,
// ISLPED 2017 [2]; re-implemented as the paper's comparison baseline).
//
// EHTR searches far harder than INOR: for every group count n in [1, N] it
// finds the *optimal* contiguous partition balancing the group MPP-current
// sums.  Minimising sum_j (S_j - Iideal)^2 for fixed n is equivalent to
// minimising sum_j S_j^2 (the cross terms are constant), which is
// n-independent and solvable for all n at once by dynamic programming:
//
//   dp[j][i] = min_k dp[j-1][k] + (prefix[i] - prefix[k])^2
//
// The naive DP is O(N^2) states with O(N) transitions — the O(N^3) runtime
// the paper attributes to EHTR.  The squared-segment-sum cost satisfies the
// quadrangle inequality for non-negative currents, so the lowest argmin is
// split-monotone (Knuth 1971; Yao 1980): opt[j-1][i] <= opt[j][i] <=
// opt[j][i+1].  Each column's scan is bounded by the previous layer's
// split at that column and by the next column's split in the same layer;
// the windows telescope, so the whole DP is O(N * (N + max_n)).  The
// bounds are widened to every split whose rounded cost is within a
// worst-case rounding slack of the column minimum, which keeps the result
// bit-identical to a full scan even where rounding breaks exact ties
// (all-equal currents).  The cubic DP lives in the test oracle library
// (tests/oracle/), where tests/test_ehtr_opt.cpp checks the two against
// each other on random, tied and degenerate inputs.  Each n's
// partition is then scored with the same charger-aware objective.  Like
// INOR in the paper's evaluation it re-runs every 0.5 s and always
// actuates, hence its large switching overhead in Table I.
//
// Warm starts (docs/actuation.md): across consecutive actuations the
// temperature field drifts slowly, so the optimal group count moves little.
// ehtr_search therefore solves the DP only a few layers past the incumbent
// group count and *certifies* the rest away with core::ScoreBound
// (core/objective.hpp), a per-n upper bound on the charger-aware score of
// any n-group config that could match the best score found so far.  The
// bound confines such a config to the converter's efficiency band around
// Vout (it must be nearly as efficient as the best already is), couples
// the string's voc and resistance through the array's total MPP, and
// maximises the string power over both in closed form.  Whenever the
// bound can't rule a region out, the DP is extended into it and scored for
// real.  In the worst case that converges to the full cold sweep, so the
// chosen config is bit-identical to cold search by construction (the cold
// sweep is kept as a test oracle in tests/oracle/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/reconfigurer.hpp"
#include "power/converter.hpp"
#include "teg/array.hpp"

namespace tegrec::core {

/// Owns the partition DP's backtracking state: one flat uint32 parent arena
/// (solved layers x N + 1 columns) instead of N materialised ArrayConfigs.
/// Candidates are reconstructed on demand into a caller scratch buffer, so
/// a full EHTR sweep keeps O(N) bytes of candidate state resident where
/// materialising all partitions costs O(N^2) (~400 MB at N = 10k) on top of
/// the arena.
///
/// The table solves lazily: layer j depends only on layer j - 1, so the two
/// live DP value rows are retained and extend_to() appends further layers
/// on demand.  Layers are bit-identical however the solve is split —
/// solving to H then extending to H' equals solving to H' in one shot —
/// which is what lets the warm-started search stop early yet stay
/// bit-identical to the cold sweep.  The parent arena grows with the solved
/// layer count, so a warm pass that stops at H groups keeps H/max_groups of
/// the cold arena footprint.
class PartitionTable {
 public:
  /// Validates inputs and solves the balanced-partition DP for group
  /// counts 1..initial_groups (0 = all max_groups).  Throws
  /// std::invalid_argument on empty/non-finite/negative currents or
  /// max_groups outside [1, N].
  PartitionTable(const std::vector<double>& mpp_currents,
                 std::size_t max_groups, std::size_t initial_groups = 0);

  std::size_t num_modules() const { return count_; }
  std::size_t max_groups() const { return max_groups_; }
  /// Group counts 1..solved_groups() are reconstructible right now.
  std::size_t solved_groups() const { return solved_groups_; }

  /// Solves further DP layers until group counts 1..n are available
  /// (clamped to max_groups; no-op when already solved that far).
  void extend_to(std::size_t n);

  /// Writes the optimal n-group partition's group starts into `starts`
  /// (resized to n; capacity is reused across calls).  n must be in
  /// [1, solved_groups()].
  void reconstruct(std::size_t n, std::vector<std::size_t>& starts) const;

  /// Materialises the optimal n-group partition as an ArrayConfig.
  teg::ArrayConfig config(std::size_t n) const;

 private:
  std::size_t count_ = 0;
  std::size_t max_groups_ = 0;
  std::size_t solved_groups_ = 0;
  /// Layer-major: parents_[(j - 1) * (count_ + 1) + i] is the best split
  /// point k for dp[j][i] (layer j = one more group than layer j - 1).
  /// Sized for the solved layers only; extend_to() grows it.
  std::vector<std::uint32_t> parents_;
  std::vector<double> prefix_;  ///< current prefix sums (DP cost basis)
  std::vector<double> dp_;      ///< value row of the last solved layer
  /// Lowest near-argmin per column of the last solved layer: the next
  /// layer's window lower bounds (all 0 for the closed-form first layer).
  std::vector<std::uint32_t> near_lo_;
  double tau_step_ = 0.0;  ///< per-layer rounding slack of the windows
};

/// Warm-start seed for ehtr_search.  `incumbent_groups` seeds the
/// neighbourhood (0 = none; the search then seeds from the converter's
/// efficient group-count window) and `width` is how far past the seed the
/// first DP solve reaches.  Purely a performance hint: the certified
/// extension loop guarantees the chosen config is bit-identical to the
/// cold sweep for every setting.  The default is narrow because the first
/// solve's layers are all solved and scored whatever the bound says; the
/// extension loop reaches further wherever the bound cannot rule a count
/// out.
struct EhtrWarmStart {
  std::size_t incumbent_groups = 0;
  std::size_t width = 4;
};

/// Observability counters for one ehtr_search call (bench + tests).
struct EhtrSearchStats {
  std::size_t max_groups = 0;        ///< full sweep bound after clamping
  std::size_t groups_certified = 0;  ///< group counts actually solved+scored
  bool warm_used = false;            ///< bound usable (no degenerate modules)
};

/// Full EHTR search: group counts 1..max_groups (0 = all N, values above N
/// clamp to N), charger-aware scoring over a cached ArrayEvaluator.
/// Candidates are streamed out of a PartitionTable and scored in parallel
/// chunks with per-thread scratch (`num_threads` as in util::parallel_for:
/// 0 = hardware, 1 = inline), so only the chosen config is ever
/// materialised — O(N) candidate bytes instead of the old O(N^2) vector.
/// The argmax is a sequential lowest-index scan over the score table, so
/// the result is bit-identical to scoring the materialised candidate list
/// for every thread count; if no candidate scores above the sentinel
/// (e.g. an all-NaN temperature field) the first candidate is returned.
///
/// The DP is solved only to `warm.width` layers past the warm seed's group
/// count, and group counts beyond the frontier are pruned by
/// ScoreBound: a config can match the scored best only inside the
/// converter's efficiency band around Vout, where its string voc lies in
/// [Vbot(n), Vtop(n)] (the n smallest / largest module vocs), its
/// resistance is at least max(n^2 / G, voc^2 / (4 P_tot)), and its score
/// is at most eta_peak * d(min(P_cap, max_voc max_v v (voc - v) / r)).
/// The band is recomputed every extension round, as the best only rises.
/// Counts whose bound ties or beats the scored best force a DP extension
/// and real scoring; only counts the bound strictly rules out are skipped,
/// so the strict-improvement argmax provably can't land there and the
/// result stays bit-identical to cold search.  Degenerate inputs
/// (non-finite vocs or conductances) leave no usable bound, so the search
/// falls back to the full sweep.
teg::ArrayConfig ehtr_search(const teg::TegArray& array,
                             const power::Converter& converter,
                             std::size_t num_threads = 1,
                             std::size_t max_groups = 0,
                             const EhtrWarmStart& warm = {},
                             EhtrSearchStats* stats = nullptr);

/// Periodic controller wrapping ehtr_search (0.5 s period per [5]).
/// `max_groups` bounds both the candidate sweep and the DP parent arena
/// (0 = no cap); operators of farm-scale arrays use it to trade optimality
/// headroom for memory.  Each invocation seeds the certified warm pass
/// with the held config's group count.
class EhtrReconfigurer final : public Reconfigurer {
 public:
  EhtrReconfigurer(const teg::DeviceParams& device,
                   const power::ConverterParams& converter,
                   double period_s = 0.5, std::size_t num_threads = 1,
                   std::size_t max_groups = 0);

  std::string name() const override { return "EHTR"; }
  UpdateResult update(double time_s, const std::vector<double>& delta_t_k,
                      double ambient_c) override;
  void reset() override;
  AlgorithmCost algorithm_cost() const override;

  /// Stateless between invocations apart from the (next run time, held
  /// config) pair, so checkpoints round-trip trivially.  The DP runs fresh
  /// per invocation and is bit-identical for every thread count and warm
  /// seed, so the restored decision stream matches regardless of
  /// num_threads (the restored config re-seeds the neighbourhood exactly
  /// as the live run's would have).
  bool supports_checkpoint() const override { return true; }
  std::string checkpoint_state() const override;
  void restore_checkpoint_state(const std::string& state) override;

 private:
  teg::DeviceParams device_;
  power::Converter converter_;
  double period_s_;
  std::size_t num_threads_;
  std::size_t max_groups_;
  double next_run_time_s_ = 0.0;
  bool has_config_ = false;
  teg::ArrayConfig current_;
};

}  // namespace tegrec::core
