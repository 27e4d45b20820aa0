// Exhaustive configuration search (test oracles for small N).
//
// Two searches back the near-optimality claims, and a per-partition
// listing backs the EHTR score bound's soundness test:
//  * exhaustive_contiguous_search — enumerates all 2^(N-1) contiguous
//    partitions (every subset of series boundaries).  This is the true
//    optimum of the space INOR/EHTR search; tests assert both heuristics
//    land within a small factor of it.
//  * exhaustive_set_partition_search — enumerates all set partitions
//    (non-contiguous grouping, Bell(N) candidates) to quantify how much
//    the fabric's contiguity restriction costs at all.  Only feasible for
//    N <~ 12.
//  * exhaustive_contiguous_scores — every contiguous partition's group
//    count and score.
#pragma once

#include <cstddef>
#include <vector>

#include "core/algorithm_cost.hpp"
#include "power/converter.hpp"
#include "teg/array.hpp"
#include "teg/config.hpp"

namespace tegrec::oracle {

/// Compute weight of a brute-force search on core::AlgorithmCost's scale
/// (above EHTR's global DP).
inline core::AlgorithmCost exhaustive_cost() { return {8.0}; }

/// Result of an exhaustive search.
struct ExhaustiveResult {
  teg::ArrayConfig config;      ///< best contiguous representative
  double power_w = 0.0;         ///< charger-aware power of the best
  std::size_t evaluated = 0;    ///< number of candidates scored
};

/// Optimum over all contiguous partitions.  Throws for N > 24 (2^23
/// candidates) to keep runtimes sane.
ExhaustiveResult exhaustive_contiguous_search(const teg::TegArray& array,
                                              const power::Converter& converter);

/// Group count and charger-aware power of every contiguous partition, in
/// boundary-mask order (bit i set = series boundary after module i).
/// Throws for N > 16 (2^15 partitions).
struct ScoredPartition {
  std::size_t num_groups = 0;
  double power_w = 0.0;
};
std::vector<ScoredPartition> exhaustive_contiguous_scores(
    const teg::TegArray& array, const power::Converter& converter);

/// Best power over all set partitions (groups need not be contiguous).
/// The returned power is what a fully flexible fabric could reach; no
/// ArrayConfig can represent it in general, so only the power and the
/// candidate count are returned.  Throws for N > 12.
struct SetPartitionResult {
  double power_w = 0.0;
  std::size_t evaluated = 0;
};
SetPartitionResult exhaustive_set_partition_search(
    const teg::TegArray& array, const power::Converter& converter);

}  // namespace tegrec::oracle
