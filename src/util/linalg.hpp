// Dense linear algebra for the MLR predictor's normal equations.
//
// The library implements only what predict::MlrPredictor needs: a dense
// row-major matrix to accumulate X^T X in, and a ridge-regularised
// Cholesky solve of the normal equations.  Everything is double precision;
// problem sizes are tiny (feature counts below ten), so cache blocking is
// unnecessary.  The materialised least-squares references the streamed
// refit is checked against live in the test oracles
// (tests/oracle/least_squares.hpp).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace tegrec::util {

/// Dense row-major matrix of doubles.
///
/// Invariants: rows()*cols() == data().size().  Elements are stored
/// contiguously row by row.  Element access checks bounds and throws
/// std::out_of_range.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Frobenius norm.
  double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves the symmetric positive definite system A x = b via Cholesky
/// factorisation.  Throws std::runtime_error if A is not SPD (within a
/// small numeric tolerance handled by a diagonal jitter retry).
std::vector<double> cholesky_solve(const Matrix& a, const std::vector<double>& b);

/// Solves the ridge-regularised normal equations (A^T A + lambda I) x =
/// A^T b given the products `ata` = A^T A and `atb` = A^T b, with lambda =
/// ridge * (1 + ||A^T A||_F), by cholesky_solve.  Callers that stream rows
/// accumulate the products themselves and skip materialising A.
std::vector<double> solve_normal_equations(Matrix ata,
                                           const std::vector<double>& atb,
                                           double ridge);

}  // namespace tegrec::util
