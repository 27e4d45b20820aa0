#include "oracle/kernels.hpp"

#include <stdexcept>
#include <vector>

#include "teg/module.hpp"

namespace tegrec::oracle {

teg::LinearSource string_equivalent(const teg::TegArray& array,
                                    std::span<const std::size_t> starts,
                                    Kernel kernel) {
  if (kernel == Kernel::kSimd && !teg::ArrayEvaluator::simd_available()) {
    throw std::invalid_argument(
        "oracle::string_equivalent: SIMD kernel unavailable on this host");
  }
  // The evaluator's prefix sums, accumulated in the same order.
  const std::size_t n = array.size();
  std::vector<double> cp(n + 1, 0.0);
  std::vector<double> np(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const teg::Module& m = array.module(i);
    const double r = m.internal_resistance_ohm();
    cp[i + 1] = cp[i] + 1.0 / r;
    np[i + 1] = np[i] + m.open_circuit_voltage_v() / r;
  }
  // Closing the starts with N lets the kernel handle the last group too.
  std::vector<std::size_t> bounds(starts.begin(), starts.end());
  bounds.push_back(n);
  const std::size_t groups = starts.size();
  std::vector<double> voc(groups);
  std::vector<double> r(groups);
  (kernel == Kernel::kSimd ? teg::detail::group_block_simd
                           : teg::detail::group_block_scalar)(
      cp.data(), np.data(), bounds.data(), groups, voc.data(), r.data());
  teg::LinearSource out;
  for (std::size_t k = 0; k < groups; ++k) {
    out.voc_v += voc[k];
    out.r_ohm += r[k];
  }
  return out;
}

}  // namespace tegrec::oracle
