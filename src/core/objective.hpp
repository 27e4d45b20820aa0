// Shared configuration-quality objective.
//
// Section III.B: the charger's conversion efficiency falls off as the
// string voltage leaves the 13.8 V neighbourhood, so configurations are
// compared by the power that actually reaches the battery rail, not by the
// raw array MPP.  All algorithms (INOR's inner loop, EHTR's per-n
// selection, DNOR's switch-or-hold energy estimates) score candidates with
// this one function.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"
#include "teg/config.hpp"

namespace tegrec::core {

/// Post-converter power of a configuration at the array's current
/// temperature distribution (settled MPPT assumed).
double config_power_w(const teg::TegArray& array, const power::Converter& converter,
                      const teg::ArrayConfig& config);

/// Full operating point (current/voltage/raw/net power) of a configuration.
power::OperatingPoint config_operating_point(const teg::TegArray& array,
                                             const power::Converter& converter,
                                             const teg::ArrayConfig& config);

/// Cached variants: score against a prebuilt ArrayEvaluator in O(groups)
/// instead of materialising a SeriesString of N module copies.  These are
/// the hot-path overloads used by the candidate-scoring loops (EHTR, INOR)
/// and the simulator's per-step evaluation.
double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      const teg::ArrayConfig& config);

power::OperatingPoint config_operating_point(const teg::ArrayEvaluator& evaluator,
                                             const power::Converter& converter,
                                             const teg::ArrayConfig& config);

/// Streaming variants: score a candidate from its raw group starts (first
/// 0, strictly increasing, last group implicit to the end) without
/// materialising an ArrayConfig.  Bit-identical to the ArrayConfig
/// overloads; used by EHTR's backtrack-and-score sweep.
double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      std::span<const std::size_t> group_starts);

power::OperatingPoint config_operating_point(
    const teg::ArrayEvaluator& evaluator, const power::Converter& converter,
    std::span<const std::size_t> group_starts);

/// Upper bound on the charger-aware score (config_power_w) of the n-group
/// configs of one array under one converter that reach a given score
/// `best`.  EHTR certifies the group counts it never solves with it, and
/// INOR skips window counts that cannot beat its best.  Three facts, each
/// true of any partition into n groups:
///
///  (a) Efficiency band.  With d(p) = p^2 / (p + P_fix) and Pin clamped at
///      P_cap, a config operating at voltage v delivers at most
///      eta_v(v) * d(min(P_tot, P_cap)), eta_v(v) = eta_peak - k_v
///      ln^2(v / Vout), where P_tot is the sum of the module MPPs (no
///      series-parallel string beats it: Cauchy-Schwarz over each parallel
///      group, then over the series groups).  So a config scoring >= best
///      operates at |ln(v / Vout)| <= delta = sqrt((eta_peak - best / d) /
///      k_v): the band [Vout e^-delta, Vout e^delta], intersected with the
///      input window (the whole window when best <= 0 or k_v = 0).
///  (b) Coupled voc and R.  The string voc lies in [Vbot(n), Vtop(n)], the
///      sums of the n smallest / largest module vocs (each group's voc is a
///      conductance-weighted mean of its members), and the string
///      resistance is at least max(n^2 / G, voc^2 / (4 P_tot)): AM-HM over
///      the group conductances summing to G, and (a)'s P_tot.
///  (c) Closed form.  The string power inside the band [a, b] is at most
///      f(voc) = max_{v in [a, b]} v (voc - v) / r(voc).  The maximum of f
///      over [Vbot, Vtop] lies on one of Vbot, Vtop, 2 n sqrt(P_tot / G)
///      (where the two resistance floors cross), 2a and 2b, each clamped
///      into the interval; f rises up to max(2 n sqrt(P_tot / G), 2a) and
///      never rises after, so that one point, clamped, is the maximum.
///
/// bound = eta_peak * d(min(P_cap, max f)), widened by a relative slack
/// that covers the rounding of both the bound and the scores it is
/// compared against.  Non-increasing in `best`: the band only narrows.
class ScoreBound {
 public:
  ScoreBound(const teg::TegArray& array, const power::Converter& converter);

  /// False when some module's voc or resistance is non-finite or its
  /// resistance non-positive: the facts above fail and no bound exists.
  bool usable() const { return usable_; }

  /// Operating-voltage band of fact (a); empty when lo_v > hi_v.
  struct Band {
    double lo_v = 0.0;
    double hi_v = 0.0;
  };
  /// The band a config must operate in to score >= best; empty when no
  /// config of the array can reach `best`.
  Band band(double best) const;

  /// Upper bound on the score of every n-group config (n in [1, N]) that
  /// operates inside `band`; 0 for an empty band.  Requires usable().
  double bound(std::size_t n, const Band& band) const;

 private:
  power::ConverterParams params_;
  bool usable_ = false;
  double total_g_ = 0.0;           ///< G, total module conductance
  double total_mpp_w_ = 0.0;       ///< P_tot, sum of module MPPs
  double knee_per_group_v_ = 0.0;  ///< 2 sqrt(P_tot / G)
  double delivered_cap_w_ = 0.0;   ///< d(min(P_tot, P_cap))
  double slack_ = 0.0;             ///< relative rounding margin
  std::vector<double> bottom_voc_;  ///< [n] = Vbot(n)
  std::vector<double> top_voc_;     ///< [n] = Vtop(n)
};

/// The [nmin, nmax] group-count window of Algorithm 1, derived from the
/// converter's efficient input range and the array's mean module MPP
/// voltage (Section III.B / V.A).
power::Converter::GroupRange group_count_window(const teg::TegArray& array,
                                                const power::Converter& converter);

}  // namespace tegrec::core
