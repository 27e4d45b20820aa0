#include "oracle/ehtr.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/ehtr.hpp"
#include "core/objective.hpp"
#include "teg/array_evaluator.hpp"

namespace tegrec::oracle {

std::vector<teg::ArrayConfig> cubic_partitions(
    const std::vector<double>& mpp_currents, std::size_t max_n) {
  const std::size_t count = mpp_currents.size();
  if (count == 0 || max_n == 0 || max_n > count) {
    throw std::invalid_argument("cubic_partitions: bad size or group count");
  }
  std::vector<double> prefix(count + 1, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(mpp_currents[i]) || mpp_currents[i] < 0.0) {
      throw std::invalid_argument(
          "cubic_partitions: non-finite or negative current");
    }
    prefix[i + 1] = prefix[i] + mpp_currents[i];
  }
  // cost[j][i]: least sum of squared group sums over splits of modules
  // [0, i) into j + 1 groups; parent[j][i]: where the last group starts.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cost(max_n,
                                        std::vector<double>(count + 1, inf));
  std::vector<std::vector<std::size_t>> parent(
      max_n, std::vector<std::size_t>(count + 1, 0));
  for (std::size_t i = 1; i <= count; ++i) {
    const double s = prefix[i] - prefix[0];
    cost[0][i] = s * s;
  }
  for (std::size_t j = 1; j < max_n; ++j) {
    for (std::size_t i = j + 1; i <= count; ++i) {
      for (std::size_t k = j; k < i; ++k) {
        const double s = prefix[i] - prefix[k];
        const double c = cost[j - 1][k] + s * s;
        if (c < cost[j][i]) {
          cost[j][i] = c;
          parent[j][i] = k;
        }
      }
    }
  }
  std::vector<teg::ArrayConfig> out;
  out.reserve(max_n);
  for (std::size_t n = 1; n <= max_n; ++n) {
    std::vector<std::size_t> starts(n, 0);
    std::size_t i = count;
    for (std::size_t j = n; j-- > 1;) {
      i = parent[j][i];
      starts[j] = i;
    }
    out.emplace_back(std::move(starts), count);
  }
  return out;
}

std::vector<teg::ArrayConfig> balanced_partitions(
    const std::vector<double>& mpp_currents, std::size_t max_n) {
  const core::PartitionTable table(mpp_currents, max_n);
  std::vector<teg::ArrayConfig> out;
  out.reserve(max_n);
  for (std::size_t n = 1; n <= max_n; ++n) out.push_back(table.config(n));
  return out;
}

teg::ArrayConfig cold_ehtr_search(const teg::TegArray& array,
                                  const power::Converter& converter,
                                  std::size_t max_groups, Dp dp) {
  std::vector<double> impp = array.module_mpp_currents();
  for (double& x : impp) {
    if (!std::isfinite(x)) x = 0.0;
  }
  if (max_groups == 0 || max_groups > array.size()) max_groups = array.size();
  const std::vector<teg::ArrayConfig> candidates =
      dp == Dp::kCubic ? cubic_partitions(impp, max_groups)
                       : balanced_partitions(impp, max_groups);
  const teg::ArrayEvaluator evaluator(array);
  std::size_t best = 0;
  double best_power = -1.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double p = core::config_power_w(evaluator, converter, candidates[i]);
    if (p > best_power) {
      best_power = p;
      best = i;
    }
  }
  return candidates[best];
}

}  // namespace tegrec::oracle
