#include "core/inor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/objective.hpp"
#include "oracle/exhaustive.hpp"
#include "teg/array_evaluator.hpp"
#include "util/rng.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

std::vector<double> decaying_delta_t(std::size_t n, double hi, double lo) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    out[i] = hi * std::exp(std::log(lo / hi) * x);
  }
  return out;
}

TEST(InorPartition, ExactGroupCount) {
  const std::vector<double> impp{1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  for (std::size_t n = 1; n <= 6; ++n) {
    const teg::ArrayConfig c = inor_partition(impp, n);
    EXPECT_EQ(c.num_groups(), n);
    EXPECT_EQ(c.num_modules(), 6u);
  }
}

TEST(InorPartition, UniformCurrentsGiveUniformGroups) {
  const std::vector<double> impp(12, 0.7);
  const teg::ArrayConfig c = inor_partition(impp, 4);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(c.group_size(j), 3u);
}

TEST(InorPartition, BalancesGroupSums) {
  // Decaying currents: the greedy boundaries must make entrance groups
  // smaller (fewer hot modules reach Iideal) and exit groups larger.
  const std::vector<double> impp{2.0, 1.8, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3};
  const teg::ArrayConfig c = inor_partition(impp, 3);
  ASSERT_EQ(c.num_groups(), 3u);
  EXPECT_LE(c.group_size(0), c.group_size(2));
  // Every group sum within 1 module-current of Iideal.
  double total = 0.0;
  for (double x : impp) total += x;
  const double ideal = total / 3.0;
  for (std::size_t j = 0; j < 3; ++j) {
    double sum = 0.0;
    for (std::size_t i = c.group_begin(j); i < c.group_end(j); ++i) sum += impp[i];
    EXPECT_NEAR(sum, ideal, 2.0) << "group " << j;
  }
}

TEST(InorPartition, InvalidArgsThrow) {
  EXPECT_THROW(inor_partition({1.0, 2.0}, 0), std::invalid_argument);
  EXPECT_THROW(inor_partition({1.0, 2.0}, 3), std::invalid_argument);
  EXPECT_THROW(inor_partition({1.0, -1.0}, 1), std::invalid_argument);
}

TEST(InorPartition, ToleratesColdModules) {
  // Modules at dT = 0 contribute zero MPP current but must not crash the
  // controller (the radiator can cool to ambient at a long stop).
  const teg::ArrayConfig c = inor_partition({1.0, 0.0, 0.8, 0.0, 0.6}, 2);
  EXPECT_EQ(c.num_groups(), 2u);
  EXPECT_EQ(c.num_modules(), 5u);
}

TEST(InorPartition, DeadArrayFallsBackToUniform) {
  const teg::ArrayConfig c = inor_partition(std::vector<double>(8, 0.0), 4);
  EXPECT_EQ(c, teg::ArrayConfig::uniform(8, 4));
}

TEST(InorSearch, SurvivesStoneColdArray) {
  const teg::TegArray array(kDev, std::vector<double>(20, 0.0));
  const power::Converter conv(kConv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 20});
  EXPECT_GE(c.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(config_power_w(array, conv, c), 0.0);
}

TEST(InorSearch, BeatsOrMatchesFixedBaseline) {
  const teg::TegArray array(kDev, decaying_delta_t(40, 38.0, 6.0));
  const power::Converter conv(kConv);
  const teg::ArrayConfig best = inor_search(array, conv);
  const double p_inor = config_power_w(array, conv, best);
  // sqrt(N) x sqrt(N) fixed grid (well inside the converter window).
  const double p_grid =
      config_power_w(array, conv, teg::ArrayConfig::uniform(40, 6));
  EXPECT_GE(p_inor, p_grid - 1e-9);
}

TEST(InorSearch, NearOptimalVsExhaustiveContiguous) {
  // The key claim of Algorithm 1: greedy balancing lands within a few
  // percent of the exhaustive contiguous optimum even on adversarially
  // shuffled (non-monotone) temperature profiles.
  util::Rng rng(11);
  const power::Converter conv(kConv);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> dts(12);
    for (auto& dt : dts) dt = rng.uniform(5.0, 40.0);
    const teg::TegArray array(kDev, dts);
    const oracle::ExhaustiveResult opt =
        oracle::exhaustive_contiguous_search(array, conv);
    const teg::ArrayConfig c =
        inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 12});
    const double p = config_power_w(array, conv, c);
    EXPECT_GE(p, 0.93 * opt.power_w) << "trial " << trial;
  }
}

TEST(InorSearch, NearOptimalOnMonotoneProfile) {
  // On the physical (monotone decaying) radiator profile the greedy
  // boundaries are essentially optimal.
  const power::Converter conv(kConv);
  const teg::TegArray array(kDev, decaying_delta_t(12, 38.0, 6.0));
  const oracle::ExhaustiveResult opt =
      oracle::exhaustive_contiguous_search(array, conv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 12});
  EXPECT_GE(config_power_w(array, conv, c), 0.985 * opt.power_w);
}

TEST(InorSearch, RespectsExplicitWindow) {
  const teg::TegArray array(kDev, decaying_delta_t(20, 35.0, 8.0));
  const power::Converter conv(kConv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 4, .nmax = 6});
  EXPECT_GE(c.num_groups(), 4u);
  EXPECT_LE(c.num_groups(), 6u);
}

TEST(InorSearch, DerivedWindowKeepsVoltageNearConverterBand) {
  const teg::TegArray array(kDev, decaying_delta_t(100, 36.0, 7.0));
  const power::Converter conv(kConv);
  const teg::ArrayConfig c = inor_search(array, conv);
  const double vmpp = array.mpp_voltage_v(c);
  EXPECT_GT(vmpp, conv.params().min_input_v);
  EXPECT_LT(vmpp, conv.params().max_input_v);
}

TEST(InorSearch, BadWindowThrows) {
  const teg::TegArray array(kDev, decaying_delta_t(10, 30.0, 10.0));
  const power::Converter conv(kConv);
  EXPECT_THROW(inor_search(array, conv, InorOptions{.nmin = 5, .nmax = 4}),
               std::invalid_argument);
  EXPECT_THROW(inor_search(array, conv, InorOptions{.nmin = 1, .nmax = 11}),
               std::invalid_argument);
}

/// The in-order Algorithm 1 scan inor_search must reproduce bit for bit:
/// every window count's greedy partition scored in ascending order, the
/// first strict maximum kept (the empty config when nothing scores above
/// the -1 sentinel).
teg::ArrayConfig in_order_scan(const teg::TegArray& array,
                               const power::Converter& conv, std::size_t nmin,
                               std::size_t nmax) {
  const std::vector<double> impp = array.module_mpp_currents();
  const teg::ArrayEvaluator evaluator(array);
  double best = -1.0;
  teg::ArrayConfig chosen;
  for (std::size_t n = nmin; n <= nmax; ++n) {
    teg::ArrayConfig candidate = inor_partition(impp, n);
    const double p = config_power_w(evaluator, conv, candidate);
    if (p > best) {
      best = p;
      chosen = std::move(candidate);
    }
  }
  return chosen;
}

TEST(InorSearch, SkippingByScoreBoundMatchesInOrderScan) {
  // inor_search scores the window from its middle and skips counts whose
  // ScoreBound is below the best so far; the pick must still be the
  // in-order scan's, under converters that widen or collapse the
  // efficiency band and with fields that leave the bound unusable.
  util::Rng rng(404);
  std::vector<power::ConverterParams> convs(5, kConv);
  convs[1].voltage_penalty = 0.0;
  convs[2].fixed_loss_w = 0.0;
  convs[3].max_input_power_w = 2.0;
  convs[4].min_input_v = 12.5;
  convs[4].max_input_v = 15.0;
  for (unsigned trial = 0; trial < 24; ++trial) {
    const std::size_t n = std::vector<std::size_t>{8, 50, 120, 400}[trial % 4];
    std::vector<double> dts = decaying_delta_t(n, rng.uniform(20.0, 60.0),
                                               rng.uniform(1.0, 8.0));
    for (double& dt : dts) dt = std::max(0.0, dt + rng.uniform(-3.0, 3.0));
    // A NaN module leaves no usable bound (and no derivable window).
    const bool nan_field = trial % 8 == 7;
    if (nan_field) dts[n / 2] = std::numeric_limits<double>::quiet_NaN();
    const teg::TegArray array(kDev, dts);
    const std::size_t explicit_max = std::min<std::size_t>(n, 40);
    for (const power::ConverterParams& params : convs) {
      const power::Converter conv(params);
      const InorOptions wide{.nmin = 1, .nmax = explicit_max};
      ASSERT_EQ(inor_search(array, conv, wide),
                in_order_scan(array, conv, 1, explicit_max))
          << "trial " << trial;
      if (nan_field) continue;
      const auto window = group_count_window(array, conv);
      ASSERT_EQ(inor_search(array, conv),
                in_order_scan(array, conv, window.nmin, window.nmax))
          << "trial " << trial;
    }
  }
}

TEST(InorReconfigurer, HonoursPeriod) {
  InorReconfigurer rec(kDev, kConv, 0.5);
  const std::vector<double> dts = decaying_delta_t(20, 35.0, 8.0);
  const UpdateResult r0 = rec.update(0.0, dts, 25.0);
  EXPECT_TRUE(r0.invoked);
  EXPECT_TRUE(r0.actuate);
  const UpdateResult r1 = rec.update(0.25, dts, 25.0);  // mid-period
  EXPECT_FALSE(r1.invoked);
  EXPECT_FALSE(r1.actuate);
  EXPECT_EQ(r1.config, r0.config);
  const UpdateResult r2 = rec.update(0.5, dts, 25.0);  // next period
  EXPECT_TRUE(r2.invoked);
}

TEST(InorReconfigurer, SwitchedFlagTracksConfigChange) {
  InorReconfigurer rec(kDev, kConv, 0.5);
  const std::vector<double> dts = decaying_delta_t(20, 35.0, 8.0);
  rec.update(0.0, dts, 25.0);
  // Same temperatures: config identical, actuate still true (blind rebuild)
  // but switched false.
  const UpdateResult r = rec.update(0.5, dts, 25.0);
  EXPECT_TRUE(r.invoked);
  EXPECT_TRUE(r.actuate);
  EXPECT_FALSE(r.switched);
}

TEST(InorReconfigurer, ResetForgetsState) {
  InorReconfigurer rec(kDev, kConv, 10.0);
  const std::vector<double> dts = decaying_delta_t(20, 35.0, 8.0);
  rec.update(0.0, dts, 25.0);
  rec.reset();
  const UpdateResult r = rec.update(1.0, dts, 25.0);  // would be mid-period
  EXPECT_TRUE(r.invoked);
}

TEST(InorReconfigurer, BadPeriodThrows) {
  EXPECT_THROW(InorReconfigurer(kDev, kConv, 0.0), std::invalid_argument);
}

// Property: across window widths the INOR result never exceeds ideal power
// and always produces a valid partition.
class InorWindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InorWindowSweep, ValidAndBounded) {
  const std::size_t nmax = GetParam();
  const teg::TegArray array(kDev, decaying_delta_t(30, 36.0, 6.0));
  const power::Converter conv(kConv);
  const teg::ArrayConfig c =
      inor_search(array, conv, InorOptions{.nmin = 1, .nmax = nmax});
  EXPECT_LE(c.num_groups(), nmax);
  EXPECT_LE(config_power_w(array, conv, c), array.ideal_power_w() + 1e-9);
  std::size_t covered = 0;
  for (std::size_t j = 0; j < c.num_groups(); ++j) covered += c.group_size(j);
  EXPECT_EQ(covered, 30u);
}

INSTANTIATE_TEST_SUITE_P(Windows, InorWindowSweep,
                         ::testing::Values(1, 2, 5, 10, 20, 30));

}  // namespace
}  // namespace tegrec::core
