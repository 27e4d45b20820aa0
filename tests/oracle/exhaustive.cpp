#include "oracle/exhaustive.hpp"

#include <stdexcept>

#include "core/objective.hpp"
#include "power/mppt.hpp"
#include "teg/string.hpp"

namespace tegrec::oracle {

namespace {

// Calls fn(starts) for every contiguous partition of n >= 1 modules, in
// boundary-mask order (bit i set = series boundary after module i).
template <typename Fn>
void for_each_contiguous_partition(std::size_t n, Fn&& fn) {
  std::vector<std::size_t> starts;
  const std::size_t masks = std::size_t{1} << (n - 1);
  for (std::size_t mask = 0; mask < masks; ++mask) {
    starts.assign(1, 0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (mask & (std::size_t{1} << i)) starts.push_back(i + 1);
    }
    fn(starts);
  }
}

}  // namespace

ExhaustiveResult exhaustive_contiguous_search(const teg::TegArray& array,
                                              const power::Converter& converter) {
  const std::size_t n = array.size();
  if (n > 24) {
    throw std::invalid_argument("exhaustive_contiguous_search: N > 24");
  }
  ExhaustiveResult best;
  best.power_w = -1.0;
  const teg::ArrayEvaluator evaluator(array);
  for_each_contiguous_partition(n, [&](const std::vector<std::size_t>& starts) {
    const double p = core::config_power_w(evaluator, converter, starts);
    ++best.evaluated;
    if (p > best.power_w) {
      best.power_w = p;
      best.config = teg::ArrayConfig(starts, n);
    }
  });
  return best;
}

std::vector<ScoredPartition> exhaustive_contiguous_scores(
    const teg::TegArray& array, const power::Converter& converter) {
  const std::size_t n = array.size();
  if (n > 16) {
    throw std::invalid_argument("exhaustive_contiguous_scores: N > 16");
  }
  const teg::ArrayEvaluator evaluator(array);
  std::vector<ScoredPartition> out;
  for_each_contiguous_partition(n, [&](const std::vector<std::size_t>& starts) {
    out.push_back(
        {starts.size(), core::config_power_w(evaluator, converter, starts)});
  });
  return out;
}

namespace {

// Recursively assigns module `i` to an existing group or a fresh one
// (canonical set-partition enumeration), scoring complete assignments.
void enumerate_partitions(const teg::TegArray& array,
                          const power::Converter& converter, std::size_t i,
                          std::vector<std::vector<teg::Module>>& groups,
                          SetPartitionResult& best) {
  if (i == array.size()) {
    std::vector<teg::ParallelGroup> pgs;
    pgs.reserve(groups.size());
    for (const auto& members : groups) pgs.emplace_back(members);
    const teg::SeriesString string(std::move(pgs));
    const double p =
        power::optimal_operating_point(string, converter).output_power_w;
    ++best.evaluated;
    if (p > best.power_w) best.power_w = p;
    return;
  }
  const teg::Module& m = array.module(i);
  // By index: the recursion appends to `groups`, which can reallocate it
  // and would leave a range-for reference dangling.
  for (std::size_t k = 0; k < groups.size(); ++k) {
    groups[k].push_back(m);
    enumerate_partitions(array, converter, i + 1, groups, best);
    groups[k].pop_back();
  }
  groups.push_back({m});
  enumerate_partitions(array, converter, i + 1, groups, best);
  groups.pop_back();
}

}  // namespace

SetPartitionResult exhaustive_set_partition_search(
    const teg::TegArray& array, const power::Converter& converter) {
  if (array.size() > 12) {
    throw std::invalid_argument("exhaustive_set_partition_search: N > 12");
  }
  SetPartitionResult best;
  best.power_w = -1.0;
  std::vector<std::vector<teg::Module>> groups;
  enumerate_partitions(array, converter, 0, groups, best);
  return best;
}

}  // namespace tegrec::oracle
