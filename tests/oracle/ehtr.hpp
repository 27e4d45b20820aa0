// Test oracles for EHTR's production search (core/ehtr.hpp).
//
// The library ships one EHTR path: the Knuth-Yao partition DP driven by
// the certified warm-started search.  The alternatives it was
// proven against live here, for differential tests and benches only:
//  * cubic_partitions — the O(max_n * N^2) full-scan partition DP;
//  * balanced_partitions — every partition of a core::PartitionTable,
//    materialised as ArrayConfigs (O(N * max_n) memory);
//  * cold_ehtr_search — the full sweep: materialise every group count's
//    partition from either DP, score all of them, take the lowest-index
//    argmax.
#pragma once

#include <cstddef>
#include <vector>

#include "power/converter.hpp"
#include "teg/array.hpp"
#include "teg/config.hpp"

namespace tegrec::oracle {

/// Which partition DP a cold search solves.
enum class Dp {
  kKnuthYao,  ///< core::PartitionTable, the production DP
  kCubic,             ///< cubic_partitions
};

/// Optimal contiguous partitions (by squared group-sum balance) of the MPP
/// currents into every group count 1..max_n, by the full-scan cubic DP.
/// Element n-1 is the best partition into n groups; ties resolve to the
/// lowest split point, the production DP's rule.  Throws
/// std::invalid_argument on empty/non-finite/negative currents or max_n
/// outside [1, N], like core::PartitionTable.
std::vector<teg::ArrayConfig> cubic_partitions(
    const std::vector<double>& mpp_currents, std::size_t max_n);

/// core::PartitionTable's partitions for group counts 1..max_n,
/// materialised; element n-1 is the best partition into n groups.
std::vector<teg::ArrayConfig> balanced_partitions(
    const std::vector<double>& mpp_currents, std::size_t max_n);

/// The cold EHTR sweep core::ehtr_search must reproduce bit for bit: the
/// same current sanitising (non-finite counts as 0) and max_groups
/// clamping (0 or > N means N), every group count's partition materialised
/// from `dp` and scored with the cached charger-aware objective, and the
/// lowest-index argmax (the first candidate when none scores above -1).
/// Holds all max_groups partitions at once: O(N * max_groups) memory.
teg::ArrayConfig cold_ehtr_search(const teg::TegArray& array,
                                  const power::Converter& converter,
                                  std::size_t max_groups = 0,
                                  Dp dp = Dp::kKnuthYao);

}  // namespace tegrec::oracle
