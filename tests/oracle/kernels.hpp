// Direct runners for ArrayEvaluator's two block kernels.
//
// teg::ArrayEvaluator picks its block kernel once per process from
// simd_available().  These run a chosen kernel over a whole configuration,
// so tests can compare the scalar and SIMD kernels bit for bit, and each
// against the dispatched production path.
#pragma once

#include <cstddef>
#include <span>

#include "teg/array.hpp"
#include "teg/array_evaluator.hpp"

namespace tegrec::oracle {

enum class Kernel { kScalar, kSimd };

/// Port model of the configuration with group starts `starts` (first 0,
/// strictly increasing, all < N) over `array`'s modules: per-group models
/// from `kernel` alone, accumulated in group order as ArrayEvaluator
/// does.  kSimd throws std::invalid_argument on hosts without SIMD.
teg::LinearSource string_equivalent(const teg::TegArray& array,
                                    std::span<const std::size_t> starts,
                                    Kernel kernel);

}  // namespace tegrec::oracle
