#include "core/objective.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "teg/module.hpp"
#include "util/float_cmp.hpp"

namespace tegrec::core {

namespace {

// d(p) = p^2 / (p + P_fix): the converter's delivered power at input p and
// unit voltage efficiency.  Non-decreasing in p for P_fix >= 0, which the
// Converter guarantees.
double delivered(double p_w, double fixed_loss_w) {
  return p_w > 0.0 ? p_w * p_w / (p_w + fixed_loss_w) : 0.0;
}

}  // namespace

double config_power_w(const teg::TegArray& array, const power::Converter& converter,
                      const teg::ArrayConfig& config) {
  return config_operating_point(array, converter, config).output_power_w;
}

power::OperatingPoint config_operating_point(const teg::TegArray& array,
                                             const power::Converter& converter,
                                             const teg::ArrayConfig& config) {
  const teg::SeriesString string = array.build_string(config);
  return power::optimal_operating_point(string, converter);
}

double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      const teg::ArrayConfig& config) {
  return config_operating_point(evaluator, converter, config).output_power_w;
}

power::OperatingPoint config_operating_point(const teg::ArrayEvaluator& evaluator,
                                             const power::Converter& converter,
                                             const teg::ArrayConfig& config) {
  const teg::LinearSource port = evaluator.string_equivalent(config);
  return power::optimal_operating_point(port.voc_v, port.r_ohm, converter);
}

double config_power_w(const teg::ArrayEvaluator& evaluator,
                      const power::Converter& converter,
                      std::span<const std::size_t> group_starts) {
  return config_operating_point(evaluator, converter, group_starts)
      .output_power_w;
}

power::OperatingPoint config_operating_point(
    const teg::ArrayEvaluator& evaluator, const power::Converter& converter,
    std::span<const std::size_t> group_starts) {
  const teg::LinearSource port = evaluator.string_equivalent(group_starts);
  return power::optimal_operating_point(port.voc_v, port.r_ohm, converter);
}

power::Converter::GroupRange group_count_window(const teg::TegArray& array,
                                                const power::Converter& converter) {
  double mean_vmpp = 0.0;
  for (std::size_t i = 0; i < array.size(); ++i) {
    mean_vmpp += array.module(i).mpp_voltage_v();
  }
  mean_vmpp /= static_cast<double>(array.size());
  return converter.efficient_group_range(mean_vmpp, array.size());
}

ScoreBound::ScoreBound(const teg::TegArray& array,
                       const power::Converter& converter)
    : params_(converter.params()) {
  const std::size_t count = array.size();
  std::vector<double> vocs(count);
  double g_min = std::numeric_limits<double>::infinity();
  double g_max = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const teg::Module& m = array.module(i);
    const double voc = m.open_circuit_voltage_v();
    const double r = m.internal_resistance_ohm();
    if (!std::isfinite(voc) || !std::isfinite(r) || r <= 0.0) return;
    vocs[i] = voc;
    const double g = 1.0 / r;
    g_min = std::min(g_min, g);
    g_max = std::max(g_max, g);
    total_g_ += g;
    total_mpp_w_ += m.mpp_power_w();
  }
  if (!(std::isfinite(total_g_) && total_g_ > 0.0) ||
      !std::isfinite(total_mpp_w_)) {
    return;
  }
  std::sort(vocs.begin(), vocs.end());
  bottom_voc_.assign(count + 1, 0.0);
  top_voc_.assign(count + 1, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    bottom_voc_[i + 1] = bottom_voc_[i] + vocs[i];
    top_voc_[i + 1] = top_voc_[i] + vocs[count - 1 - i];
  }
  knee_per_group_v_ = 2.0 * std::sqrt(total_mpp_w_ / total_g_);
  delivered_cap_w_ = delivered(
      std::min(total_mpp_w_, params_.max_input_power_w), params_.fixed_loss_w);
  // Rounding margin, applied outward at every step (the band's threshold
  // and both its edges, and the final bound).  It is needed: with the
  // power cap binding at v = Vout, the bound and a config's score are the
  // same number in exact arithmetic, and only the margin keeps rounding
  // on the safe side.  The bound's own arithmetic is a few roundings per
  // step: the sorted voc prefix sums of non-negative terms err by at most
  // N u relative, exp/sqrt/division by a few u.  The scores it is
  // compared with come from the evaluator's prefix-sum differences: a
  // group's conductance (and Norton current) errs by at most 2 N u times
  // the array total, i.e. 2 N u G / g_min <= 2 N^2 u (g_max / g_min)
  // relative to the smallest group, so 4 N^2 u (g_max / g_min) covers
  // both sums; the golden-section evaluation, the converter's log and the
  // string accumulation add a few dozen u more.  The 1e-6 floor clears
  // those fixed-length chains by eight orders of magnitude while costing
  // nothing in pruning: the counts the bound rules out score percent
  // below the best, not parts per million.
  const double n = static_cast<double>(count);
  slack_ = 1e-6 + 4.0 * n * n * std::numeric_limits<double>::epsilon() *
                      (g_max / g_min);
  usable_ = true;
}

ScoreBound::Band ScoreBound::band(double best) const {
  Band band{params_.min_input_v, params_.max_input_v};
  // Every voltage in the window can still qualify.
  if (!(best > 0.0) || util::is_exactly_zero(params_.voltage_penalty)) {
    return band;
  }
  // eta_v(v) * d(min(P_tot, P_cap)) >= best requires
  // k_v ln^2(v / Vout) <= eta_peak - best / d; the threshold is lowered by
  // the slack, which also dominates the score's own log rounding.
  const double spare =
      params_.eta_peak - best / delivered_cap_w_ * (1.0 - slack_);
  if (!(spare >= 0.0)) return {1.0, 0.0};  // nothing reaches best
  const double delta = std::sqrt(spare / params_.voltage_penalty);
  const double vout = params_.output_voltage_v;
  band.lo_v = std::max(band.lo_v, vout * std::exp(-delta) * (1.0 - slack_));
  band.hi_v = std::min(band.hi_v, vout * std::exp(delta) * (1.0 + slack_));
  return band;
}

double ScoreBound::bound(std::size_t n, const Band& band) const {
  if (band.lo_v > band.hi_v || !(total_mpp_w_ > 0.0)) return 0.0;
  const double vbot = bottom_voc_[n];
  // Vbot(n) <= Vtop(n) exactly, with equality at n = N, where rounding
  // alone may swap them.
  const double vtop = std::max(vbot, top_voc_[n]);
  const double groups = static_cast<double>(n);
  // f(voc) peaks at the knee or at 2a, whichever is higher (fact (c)).
  const double voc = std::clamp(
      std::max(groups * knee_per_group_v_, 2.0 * band.lo_v), vbot, vtop);
  const double v = std::clamp(0.5 * voc, band.lo_v, band.hi_v);
  const double r = std::max(groups * groups / total_g_,
                            voc * voc / (4.0 * total_mpp_w_));
  const double p = v * (voc - v) / r;
  if (!(p > 0.0)) return 0.0;
  return params_.eta_peak *
         delivered(std::min(p, params_.max_input_power_w),
                   params_.fixed_loss_w) *
         (1.0 + slack_);
}

}  // namespace tegrec::core
