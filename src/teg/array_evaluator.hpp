// Cached O(groups) evaluation of array configurations.
//
// TegArray::build_string() aggregates a candidate configuration by copying
// Module objects into fresh ParallelGroup containers — O(N) allocations and
// copies per candidate, which dominates EHTR's ~N-candidate scoring loop and
// the simulator's per-step evaluation.  The only per-module quantities those
// aggregates actually consume are the conductance 1/R_i and the Norton
// current Voc_i/R_i (see ParallelGroup's constructor); both are additive
// over a parallel group, so prefix sums computed once per temperature
// distribution turn any contiguous group's Thevenin equivalent into two
// subtractions and a full ArrayConfig's port model into O(num_groups) work
// with zero heap allocation.
//
// The per-group arithmetic (two prefix lookups, a subtraction, a division,
// a multiplication per prefix array) is data-parallel across group
// boundaries, so the hot span overload computes group port models in fixed
// blocks through a runtime-dispatched SIMD kernel (AVX2 gathers on x86-64),
// falling back to a scalar block kernel on hosts without it.  Both kernels
// perform the identical exactly-rounded IEEE operations per group and feed
// one shared sequential accumulation loop, so either host returns
// bit-identical port models — enforced by differential tests that run both
// kernels directly through the test oracle library (tests/oracle/).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "teg/array.hpp"
#include "teg/config.hpp"

namespace tegrec::teg {

/// Thevenin port model V(I) = voc_v - I * r_ohm of a group or string.
struct LinearSource {
  double voc_v = 0.0;
  double r_ohm = 0.0;

  double mpp_current_a() const { return voc_v / (2.0 * r_ohm); }
  double mpp_voltage_v() const { return voc_v / 2.0; }
  double mpp_power_w() const { return voc_v * voc_v / (4.0 * r_ohm); }
};

namespace detail {

/// The block kernels behind ArrayEvaluator::string_equivalent.  For each
/// group k in [0, count) they write the port model of modules
/// [starts[k], starts[k+1]) from the conductance / Norton prefix sums:
///   r[k] = 1 / (cp[starts[k+1]] - cp[starts[k]])
///   voc[k] = (np[starts[k+1]] - np[starts[k]]) * r[k]
/// Every step is one exactly-rounded IEEE-754 operation in both kernels,
/// so the buffers they fill are bit-identical.
void group_block_scalar(const double* cp, const double* np,
                        const std::size_t* starts, std::size_t count,
                        double* voc, double* r);
/// Vectorised (AVX2) variant; call only when
/// ArrayEvaluator::simd_available().
void group_block_simd(const double* cp, const double* np,
                      const std::size_t* starts, std::size_t count,
                      double* voc, double* r);

}  // namespace detail

class ArrayEvaluator {
 public:
  /// Snapshots the array's per-module aggregates; the evaluator owns its
  /// data and stays valid after the TegArray is destroyed.
  explicit ArrayEvaluator(const TegArray& array);

  std::size_t size() const { return conductance_prefix_.size() - 1; }

  /// True when the host CPU exposes the vector ISA the SIMD kernel needs
  /// (AVX2 on x86-64; false elsewhere).  Decided once at runtime — the
  /// binary carries both kernels.
  static bool simd_available();

  /// Thevenin equivalent of modules [begin, end) wired in parallel.
  LinearSource group_equivalent(std::size_t begin, std::size_t end) const;

  /// Port model of a configuration's series string of parallel groups.
  LinearSource string_equivalent(const ArrayConfig& config) const;

  /// Same port model from raw group starts (first must be 0, strictly
  /// increasing, all < size(); the last group runs to the end).  This is
  /// the streaming hot path: EHTR scores candidates straight out of the
  /// partition backtrack without materialising an ArrayConfig per
  /// candidate.  Group values are computed block-wise by the host's
  /// kernel and accumulated sequentially in group order, so the result is
  /// bit-identical for either kernel and to the ArrayConfig overload.
  LinearSource string_equivalent(std::span<const std::size_t> group_starts) const;

  /// Ideal-charger MPP power of a configuration (closed form).
  double mpp_power_w(const ArrayConfig& config) const {
    return string_equivalent(config).mpp_power_w();
  }

  /// Sum of per-module MPPs: the P_ideal normaliser (config-independent).
  double ideal_power_w() const { return ideal_power_w_; }

 private:
  std::vector<double> conductance_prefix_;  ///< prefix sums of 1/R_i
  std::vector<double> norton_prefix_;       ///< prefix sums of Voc_i/R_i
  double ideal_power_w_ = 0.0;
};

}  // namespace tegrec::teg
