// Materialised least squares: the references for the MLR refit.
//
// predict::MlrPredictor streams X^T X and X^T y from the history instead
// of building X.  least_squares forms both products from a materialised A
// and solves with the same util::solve_normal_equations, so
// tests/test_mlr.cpp asserts the streamed coefficients bit-identical to
// it; qr_least_squares (Householder) cross-checks least_squares.
#pragma once

#include <vector>

#include "util/linalg.hpp"

namespace tegrec::oracle {

util::Matrix transposed(const util::Matrix& a);

/// a * b, skipping exact-zero left factors (the skip the streamed refit
/// reproduces); a * v with v as a column vector.  Both throw
/// std::invalid_argument on a dimension mismatch.
util::Matrix multiply(const util::Matrix& a, const util::Matrix& b);
std::vector<double> multiply(const util::Matrix& a, const std::vector<double>& v);

/// min_x ||A x - b||_2 through the ridge-regularised normal equations.
std::vector<double> least_squares(const util::Matrix& a,
                                  const std::vector<double>& b,
                                  double ridge = 1e-9);

/// Householder QR; throws std::invalid_argument for an underdetermined or
/// mismatched system, std::runtime_error when A is rank deficient.
std::vector<double> qr_least_squares(const util::Matrix& a,
                                     const std::vector<double>& b);

}  // namespace tegrec::oracle
