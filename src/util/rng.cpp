#include "util/rng.hpp"

#include <cmath>

namespace tegrec::util {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::gaussian(double mean, double stddev) {
  // std::normal_distribution requires stddev > 0, and noise-free configs
  // pass 0.  Scaling a unit draw is the expression libstdc++ evaluates for
  // (mean, stddev) itself, so the engine consumes the same draws and every
  // value is bit-identical to the parameterised distribution's.
  std::normal_distribution<double> unit(0.0, 1.0);
  return unit(engine_) * stddev + mean;
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::ou_step(double x, double mean, double reversion, double sigma,
                    double dt) {
  const double drift = reversion * (mean - x) * dt;
  const double diffusion = sigma * std::sqrt(dt) * gaussian(0.0, 1.0);
  return x + drift + diffusion;
}

std::vector<double> Rng::gaussian_vector(std::size_t n, double mean,
                                         double stddev) {
  std::vector<double> out(n);
  for (double& x : out) x = gaussian(mean, stddev);
  return out;
}

}  // namespace tegrec::util
