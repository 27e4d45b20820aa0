// Equivalence and determinism suite for the optimised EHTR hot path:
//  * the Knuth-Yao partition DP must reproduce the cubic oracle's
//    (oracle::cubic_partitions) partitions and costs bit-for-bit (same
//    objective, same lowest-split tie-break) across random, tied,
//    zero-plateau, single-hot-module and smooth fields, and a table
//    extended one layer at a time must equal a one-shot solve,
//  * ArrayEvaluator's cached scoring must match the SeriesString path to
//    1e-12 relative,
//  * parallel candidate scoring must be bit-identical for every thread
//    count, end to end through the simulator,
//  * an all-NaN temperature field must degrade to the first candidate
//    instead of dereferencing a null best (regression).
#include "core/ehtr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/objective.hpp"
#include "oracle/ehtr.hpp"
#include "sim/simulator.hpp"
#include "teg/array_evaluator.hpp"
#include "thermal/trace.hpp"
#include "util/rng.hpp"

namespace tegrec::core {
namespace {

const teg::DeviceParams kDev = teg::tgm_199_1_4_0_8();
const power::ConverterParams kConv;

// Partition cost recomputed exactly the way the DP accumulates it: squared
// prefix-difference per group, summed in group order.  Used on both DPs'
// outputs so equal partitions (or equal-cost ties) compare bit-identically.
double partition_cost(const std::vector<double>& impp,
                      const teg::ArrayConfig& c) {
  std::vector<double> prefix(impp.size() + 1, 0.0);
  for (std::size_t i = 0; i < impp.size(); ++i) prefix[i + 1] = prefix[i] + impp[i];
  double cost = 0.0;
  for (std::size_t j = 0; j < c.num_groups(); ++j) {
    const double s = prefix[c.group_end(j)] - prefix[c.group_begin(j)];
    cost += s * s;
  }
  return cost;
}

TEST(PartitionDpEquivalence, KnuthYaoMatchesCubicOracleAcrossSeeds) {
  // >= 20 random seeds, sizes up to 512 (acceptance criterion).
  const std::size_t sizes[] = {512, 3,   5,   9,   17,  33,  48,  64,  70, 96,
                               100, 128, 150, 200, 250, 257, 300, 350, 400, 450};
  for (std::size_t trial = 0; trial < 20; ++trial) {
    util::Rng rng(1000 + trial);
    const std::size_t n = sizes[trial];
    std::vector<double> impp(n);
    for (auto& x : impp) x = rng.uniform(0.05, 2.5);
    const auto ky = oracle::balanced_partitions(impp, n);
    const auto cubic = oracle::cubic_partitions(impp, n);
    ASSERT_EQ(ky.size(), n);
    ASSERT_EQ(cubic.size(), n);
    for (std::size_t g = 0; g < n; ++g) {
      ASSERT_EQ(ky[g].num_groups(), g + 1);
      // Bit-identical cost; with continuous random currents the argmin is
      // unique, so the partitions themselves coincide too.
      EXPECT_EQ(partition_cost(impp, ky[g]), partition_cost(impp, cubic[g]))
          << "seed " << trial << " n " << n << " groups " << g + 1;
      EXPECT_EQ(ky[g], cubic[g])
          << "seed " << trial << " n " << n << " groups " << g + 1;
    }
  }
}

TEST(PartitionDpEquivalence, KnuthYaoMatchesCubicWithTiesAndZeros) {
  // Stone-cold modules (zero current) create exact cost ties; both DPs must
  // resolve them with the same lowest-k rule.
  util::Rng rng(7);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    std::vector<double> impp(64);
    for (auto& x : impp) {
      x = rng.uniform(0.0, 1.0) < 0.35 ? 0.0 : rng.uniform(0.5, 1.5);
    }
    const auto ky = oracle::balanced_partitions(impp, 64);
    const auto cubic = oracle::cubic_partitions(impp, 64);
    for (std::size_t g = 0; g < 64; ++g) {
      EXPECT_EQ(partition_cost(impp, ky[g]), partition_cost(impp, cubic[g]))
          << "trial " << trial << " groups " << g + 1;
      EXPECT_EQ(ky[g], cubic[g]) << "trial " << trial << " groups " << g + 1;
    }
  }
}

// One stress field per seed, cycling through the shapes that stress the
// Knuth-Yao windows: exact ties, zero plateaus (empty groups cost 0),
// spikes and the smooth gradients real radiators produce.
std::vector<double> stress_field(std::size_t kind, std::size_t n,
                                 util::Rng& rng) {
  std::vector<double> impp(n);
  switch (kind) {
    case 0:  // continuous random currents
      for (auto& x : impp) x = rng.uniform(0.05, 2.5);
      break;
    case 1: {  // zero plateaus at both ends around a random core
      const auto head = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n / 3)));
      const auto tail = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n / 3)));
      for (std::size_t i = 0; i < n; ++i) {
        impp[i] = i < head || i + tail >= n ? 0.0 : rng.uniform(0.1, 2.0);
      }
      break;
    }
    case 2: {  // all-equal currents: exact ties that rounding breaks
               // differently from one layer to the next
      const double level = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.1, 3.0);
      for (auto& x : impp) x = level;
      break;
    }
    case 3: {  // one hot module among cold (or dead) ones
      const double cold = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.01, 0.1);
      for (auto& x : impp) x = cold;
      impp[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n) - 1))] = rng.uniform(2.0, 5.0);
      break;
    }
    case 4: {  // smooth monotone field: inlet-hot exponential decay
      const double peak = rng.uniform(1.0, 3.0);
      const double floor = rng.uniform(0.0, 0.3);
      const double length = rng.uniform(0.1, 1.0) * static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        impp[i] = floor + peak * std::exp(-static_cast<double>(i) / length);
      }
      if (rng.bernoulli(0.5)) std::reverse(impp.begin(), impp.end());
      break;
    }
    default:  // random currents with exact zeros mixed in
      for (auto& x : impp) {
        x = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.5, 1.5);
      }
      break;
  }
  return impp;
}

constexpr std::size_t kStressKinds = 6;

TEST(PartitionDpEquivalence, KnuthYaoStressAgainstCubicOracle) {
  // 240 seeds: every field kind at N in {1, 2, 3} and at random sizes, with
  // every 24th seed at N = 512 and a third of the seeds capped below N
  // (the warm search's partial solves).
  for (std::size_t seed = 0; seed < 240; ++seed) {
    util::Rng rng(5000 + seed);
    const std::size_t kind = seed % kStressKinds;
    std::size_t n = 0;
    if (seed < 3 * kStressKinds) {
      n = 1 + seed / kStressKinds;
    } else if (seed % 24 == 0) {
      n = 512;
    } else {
      n = static_cast<std::size_t>(rng.uniform_int(4, 160));
    }
    const std::vector<double> impp = stress_field(kind, n, rng);
    const std::size_t max_n =
        seed % 3 == 1
            ? static_cast<std::size_t>(
                  rng.uniform_int(1, static_cast<int>(n)))
            : n;
    const PartitionTable table(impp, max_n);
    const auto cubic = oracle::cubic_partitions(impp, max_n);
    for (std::size_t g = 1; g <= max_n; ++g) {
      const teg::ArrayConfig ky = table.config(g);
      ASSERT_EQ(ky, cubic[g - 1]) << "seed " << seed << " kind " << kind
                                  << " n " << n << " groups " << g;
      ASSERT_EQ(partition_cost(impp, ky), partition_cost(impp, cubic[g - 1]))
          << "seed " << seed << " groups " << g;
    }
  }
}

TEST(PartitionDpEquivalence, LayerByLayerExtensionMatchesOneShot) {
  // Each layer's window lower bounds come from the previous layer's parent
  // row, so a table grown one layer per extend_to call must reproduce the
  // one-shot solve exactly, for every field kind.
  for (std::size_t seed = 0; seed < 4 * kStressKinds; ++seed) {
    util::Rng rng(9000 + seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 96));
    const std::vector<double> impp = stress_field(seed % kStressKinds, n, rng);
    const PartitionTable full(impp, n);
    PartitionTable grown(impp, n, 1);
    for (std::size_t g = 1; g <= n; ++g) {
      grown.extend_to(g);
      ASSERT_EQ(grown.solved_groups(), g);
      ASSERT_EQ(grown.config(g), full.config(g))
          << "seed " << seed << " groups " << g;
    }
    for (std::size_t g = 1; g <= n; ++g) {
      EXPECT_EQ(grown.config(g), full.config(g))
          << "seed " << seed << " groups " << g;
    }
  }
}

TEST(ArrayEvaluatorSuite, MatchesBuildStringAcrossRandomFields) {
  util::Rng rng(41);
  for (std::size_t trial = 0; trial < 10; ++trial) {
    std::vector<double> dts(40);
    for (auto& dt : dts) dt = rng.uniform(2.0, 45.0);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayEvaluator evaluator(array);
    const power::Converter conv(kConv);

    // A spread of configurations: extremes, uniform grids, random partitions.
    std::vector<teg::ArrayConfig> configs{
        teg::ArrayConfig::all_parallel(40), teg::ArrayConfig::all_series(40),
        teg::ArrayConfig::uniform(40, 5), teg::ArrayConfig::uniform(40, 13)};
    for (int extra = 0; extra < 4; ++extra) {
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 1; i < 40; ++i) {
        if (rng.uniform(0.0, 1.0) < 0.3) starts.push_back(i);
      }
      configs.emplace_back(std::move(starts), 40);
    }

    for (const teg::ArrayConfig& c : configs) {
      const teg::SeriesString string = array.build_string(c);
      const teg::LinearSource port = evaluator.string_equivalent(c);
      const double tol_v = 1e-12 * std::max(1.0, std::abs(string.total_voc_v()));
      const double tol_r =
          1e-12 * std::max(1.0, std::abs(string.total_resistance_ohm()));
      EXPECT_NEAR(port.voc_v, string.total_voc_v(), tol_v);
      EXPECT_NEAR(port.r_ohm, string.total_resistance_ohm(), tol_r);

      const double p_string = config_power_w(array, conv, c);
      const double p_cached = config_power_w(evaluator, conv, c);
      EXPECT_NEAR(p_cached, p_string, 1e-12 * std::max(1.0, std::abs(p_string)))
          << "trial " << trial << " config " << c.to_string();
    }
  }
}

TEST(ArrayEvaluatorSuite, GroupEquivalentMatchesParallelGroup) {
  std::vector<double> dts(12);
  for (std::size_t i = 0; i < dts.size(); ++i) dts[i] = 8.0 + 2.5 * static_cast<double>(i);
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  for (std::size_t b = 0; b < 12; ++b) {
    for (std::size_t e = b + 1; e <= 12; ++e) {
      std::vector<teg::Module> members;
      for (std::size_t i = b; i < e; ++i) members.push_back(array.module(i));
      const teg::ParallelGroup group(members);
      const teg::LinearSource src = evaluator.group_equivalent(b, e);
      EXPECT_NEAR(src.voc_v, group.equivalent_voc_v(),
                  1e-12 * std::max(1.0, group.equivalent_voc_v()));
      EXPECT_NEAR(src.r_ohm, group.equivalent_resistance_ohm(),
                  1e-12 * std::max(1.0, group.equivalent_resistance_ohm()));
    }
  }
  EXPECT_THROW(evaluator.group_equivalent(3, 3), std::out_of_range);
  EXPECT_THROW(evaluator.group_equivalent(0, 13), std::out_of_range);
}

TEST(ArrayEvaluatorSuite, IdealPowerMatchesArray) {
  std::vector<double> dts(25);
  for (std::size_t i = 0; i < dts.size(); ++i) dts[i] = 5.0 + 1.7 * static_cast<double>(i);
  const teg::TegArray array(kDev, dts);
  const teg::ArrayEvaluator evaluator(array);
  // Same accumulation order as TegArray::ideal_power_w -> bit-identical.
  EXPECT_EQ(evaluator.ideal_power_w(), array.ideal_power_w());
}

TEST(EhtrParallel, SearchIsThreadCountInvariant) {
  util::Rng rng(91);
  const power::Converter conv(kConv);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    std::vector<double> dts(48);
    for (auto& dt : dts) dt = rng.uniform(4.0, 40.0);
    const teg::TegArray array(kDev, dts);
    const teg::ArrayConfig serial = ehtr_search(array, conv, 1);
    const teg::ArrayConfig four = ehtr_search(array, conv, 4);
    const teg::ArrayConfig hw = ehtr_search(array, conv, 0);
    EXPECT_EQ(serial, four) << "trial " << trial;
    EXPECT_EQ(serial, hw) << "trial " << trial;
  }
}

TEST(EhtrParallel, SearchMatchesCubicColdSweep) {
  util::Rng rng(133);
  const power::Converter conv(kConv);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    std::vector<double> dts(32);
    for (auto& dt : dts) dt = rng.uniform(4.0, 40.0);
    const teg::TegArray array(kDev, dts);
    EXPECT_EQ(ehtr_search(array, conv, 1),
              oracle::cold_ehtr_search(array, conv, 0, oracle::Dp::kCubic))
        << "trial " << trial;
  }
}

TEST(PartitionDpEquivalence, RejectsNonFiniteCurrents) {
  // The bit-identical Knuth-Yao/oracle contract only holds for finite
  // inputs, so both DPs refuse NaN/inf outright; ehtr_search sanitises
  // before calling.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(PartitionTable({1.0, nan, 1.0}, 2), std::invalid_argument);
  EXPECT_THROW(PartitionTable({1.0, inf}, 2), std::invalid_argument);
  EXPECT_THROW(oracle::cubic_partitions({1.0, nan, 1.0}, 2),
               std::invalid_argument);
  EXPECT_THROW(oracle::cubic_partitions({1.0, inf}, 2), std::invalid_argument);
}

TEST(EhtrParallel, AllNanFieldReturnsFirstCandidate) {
  // Regression: every candidate scores NaN (below the -1.0 sentinel); the
  // search must return the first candidate, not dereference a null best.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> dts(10, nan);
  const teg::TegArray array(kDev, dts, 25.0);
  const power::Converter conv(kConv);
  const teg::ArrayConfig c = ehtr_search(array, conv, 1);
  EXPECT_EQ(c, teg::ArrayConfig::all_parallel(10));
  // The parallel path takes the same fallback.
  EXPECT_EQ(ehtr_search(array, conv, 4), teg::ArrayConfig::all_parallel(10));
}

// End-to-end: an EHTR-driven simulation must produce bit-identical chosen
// configs and energies for any thread count (acceptance criterion).
TEST(EhtrParallel, SimulationBitIdenticalAcrossThreadCounts) {
  thermal::TemperatureTrace trace(0.5, 16);
  for (std::size_t t = 0; t < 40; ++t) {
    std::vector<double> temps(16);
    for (std::size_t i = 0; i < 16; ++i) {
      temps[i] = 25.0 + 30.0 * std::exp(-static_cast<double>(i) / 8.0) +
                 3.0 * std::sin(0.3 * static_cast<double>(t) +
                                0.7 * static_cast<double>(i));
    }
    trace.append(temps, 25.0);
  }

  auto run = [&](std::size_t num_threads) {
    sim::SimulationOptions options;
    options.num_threads = num_threads;
    core::EhtrReconfigurer ehtr(options.device, options.converter, 0.5,
                                num_threads);
    return sim::run_simulation(ehtr, trace, options);
  };
  const sim::SimulationResult one = run(1);
  const sim::SimulationResult four = run(4);

  EXPECT_EQ(one.energy_output_j, four.energy_output_j);
  EXPECT_EQ(one.switch_overhead_j, four.switch_overhead_j);
  EXPECT_EQ(one.battery_energy_j, four.battery_energy_j);
  EXPECT_EQ(one.num_switch_events, four.num_switch_events);
  EXPECT_EQ(one.total_switch_actuations, four.total_switch_actuations);
  ASSERT_EQ(one.steps.size(), four.steps.size());
  for (std::size_t t = 0; t < one.steps.size(); ++t) {
    EXPECT_EQ(one.steps[t].gross_power_w, four.steps[t].gross_power_w) << t;
    EXPECT_EQ(one.steps[t].net_power_w, four.steps[t].net_power_w) << t;
    EXPECT_EQ(one.steps[t].switch_actuations, four.steps[t].switch_actuations) << t;
  }
}

}  // namespace
}  // namespace tegrec::core
