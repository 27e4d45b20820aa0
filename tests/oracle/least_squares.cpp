#include "oracle/least_squares.hpp"

#include <cmath>
#include <stdexcept>

#include "util/float_cmp.hpp"

namespace tegrec::oracle {

using util::Matrix;

Matrix transposed(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  return t;
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("Matrix multiply: dimension mismatch");
  }
  Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double x = a(r, k);
      if (util::is_exactly_zero(x)) continue;  // exact sparsity skip
      for (std::size_t c = 0; c < b.cols(); ++c) out(r, c) += x * b(k, c);
    }
  }
  return out;
}

std::vector<double> multiply(const Matrix& a, const std::vector<double>& v) {
  if (a.cols() != v.size()) {
    throw std::invalid_argument("Matrix-vector multiply: dimension mismatch");
  }
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

std::vector<double> least_squares(const Matrix& a, const std::vector<double>& b,
                                  double ridge) {
  if (a.rows() != b.size()) {
    throw std::invalid_argument("least_squares: dimension mismatch");
  }
  const Matrix at = transposed(a);
  return util::solve_normal_equations(multiply(at, a), multiply(at, b), ridge);
}

std::vector<double> qr_least_squares(const Matrix& a, const std::vector<double>& b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) throw std::invalid_argument("qr_least_squares: underdetermined");
  if (m != b.size()) throw std::invalid_argument("qr_least_squares: dim mismatch");

  Matrix r = a;
  std::vector<double> rhs = b;
  // Householder transforms applied column by column.
  for (std::size_t k = 0; k < n; ++k) {
    double sigma = 0.0;
    for (std::size_t i = k; i < m; ++i) sigma += r(i, k) * r(i, k);
    sigma = std::sqrt(sigma);
    if (util::is_exactly_zero(sigma)) continue;
    if (r(k, k) > 0) sigma = -sigma;
    std::vector<double> v(m, 0.0);
    for (std::size_t i = k; i < m; ++i) v[i] = r(i, k);
    v[k] -= sigma;
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
    if (util::is_exactly_zero(vnorm2)) continue;
    for (std::size_t c = k; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) proj += v[i] * r(i, c);
      proj = 2.0 * proj / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, c) -= proj * v[i];
    }
    double proj = 0.0;
    for (std::size_t i = k; i < m; ++i) proj += v[i] * rhs[i];
    proj = 2.0 * proj / vnorm2;
    for (std::size_t i = k; i < m; ++i) rhs[i] -= proj * v[i];
  }
  // Back substitution on the upper-triangular R.
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = rhs[ii];
    for (std::size_t c = ii + 1; c < n; ++c) acc -= r(ii, c) * x[c];
    const double d = r(ii, ii);
    if (std::abs(d) < 1e-300) throw std::runtime_error("qr: rank deficient");
    x[ii] = acc / d;
  }
  return x;
}

}  // namespace tegrec::oracle
