#include "util/rng.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace tegrec::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(rs.mean(), 3.0, 0.08);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.08);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(OuStep, MeanReverts) {
  // With zero diffusion the OU step is a pure pull toward the mean.
  Rng rng(19);
  double x = 10.0;
  for (int i = 0; i < 100; ++i) x = rng.ou_step(x, 0.0, 0.5, 0.0, 0.1);
  // Euler decay: 10 * (1 - 0.05)^100 ~= 0.059.
  EXPECT_NEAR(x, 10.0 * std::pow(0.95, 100), 1e-9);
  for (int i = 0; i < 400; ++i) x = rng.ou_step(x, 0.0, 0.5, 0.0, 0.1);
  EXPECT_NEAR(x, 0.0, 1e-4);
}

TEST(OuStep, StationaryVarianceApproximation) {
  // Long OU run: stationary sigma^2 = sigma_diff^2 / (2 * reversion).
  Rng rng(23);
  const double reversion = 1.0, sigma = 0.5, dt = 0.01;
  double x = 0.0;
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) {
    x = rng.ou_step(x, 0.0, reversion, sigma, dt);
    if (i > 1000) rs.add(x);
  }
  const double expected_sd = sigma / std::sqrt(2.0 * reversion);
  EXPECT_NEAR(rs.stddev(), expected_sd, 0.05);
  EXPECT_NEAR(rs.mean(), 0.0, 0.05);
}

}  // namespace
}  // namespace tegrec::util
