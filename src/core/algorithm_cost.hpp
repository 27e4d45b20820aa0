// Deterministic per-algorithm compute budgets.
//
// The paper's Fig. 7 / Table I overhead story hinges on an asymmetry: EHTR
// re-solves a global partition DP every period while DNOR runs a cheap
// threshold rule, so EHTR pays more compute overhead per invocation.  The
// simulator used to charge every controller the same flat
// OverheadParams::compute_budget_s, which made that asymmetry invisible —
// and worse, engineering speedups to EHTR's implementation (warm starts,
// SIMD scoring) would have silently *changed simulated physics* had the
// simulator charged measured wall-clock time instead.
//
// AlgorithmCost decouples the two: each controller declares a
// deterministic budget multiplier reflecting its algorithmic weight, and
// the stepper charges multiplier * compute_budget_s through the existing
// OverheadParams door.  Budgets are data, not measurements — the charged
// cost is reproducible across hosts, thread counts, and implementation
// speedups, and EHTR's stays strictly above DNOR's by construction
// (asserted by tests/test_overhead.cpp's budget-asymmetry suite).
#pragma once

#include "switchfab/overhead.hpp"

namespace tegrec::core {

/// A controller's declared compute weight.  budget_s() is what one
/// invocation costs the simulation, in seconds of controller latency
/// (energy follows via switchfab::reconfiguration_cost).
struct AlgorithmCost {
  /// Charged budget = budget_multiplier * OverheadParams::compute_budget_s.
  /// 1.0 is the historical flat charge; 0.0 models a controller that never
  /// computes (static baseline).
  double budget_multiplier = 1.0;

  double budget_s(const switchfab::OverheadParams& overhead) const;

  // Canonical weights, ordered by algorithmic work per invocation:
  // threshold rule < window sweep < global DP.
  static AlgorithmCost baseline() { return {0.0}; }   ///< never computes
  static AlgorithmCost dnor() { return {1.0}; }       ///< threshold rule
  static AlgorithmCost inor() { return {2.0}; }       ///< [nmin,nmax] sweep
  static AlgorithmCost ehtr() { return {4.0}; }       ///< global partition DP
};

}  // namespace tegrec::core
