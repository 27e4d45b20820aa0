#include "predict/mlr.hpp"

#include <stdexcept>
#include <utility>

#include "util/float_cmp.hpp"
#include "util/linalg.hpp"

namespace tegrec::predict {

MlrPredictor::MlrPredictor(const MlrParams& params) : params_(params) {
  if (params_.lags == 0) throw std::invalid_argument("MlrPredictor: lags == 0");
}

void MlrPredictor::fit(const TemperatureHistory& history) {
  const std::size_t l = params_.lags;
  if (history.size() <= l) {
    throw std::invalid_argument("MlrPredictor::fit: history shorter than lags+1");
  }
  // Accumulates X^T X and X^T y straight from the history rows, in the row
  // order the design matrix X would have ((t, module), t-major) and with
  // the same per-entry operations as util::least_squares' Matrix products:
  // X^T X skips exact-zero left factors, X^T y skips nothing.  Each entry
  // therefore sums the same terms in the same order, so the coefficients
  // are bit-identical to solving the materialised (N * (W - L)) x (L + 1)
  // system, at O(L^2) scratch instead of O(N * W * L).
  const std::size_t n_modules = history.num_modules();
  const std::size_t cols = l + 1;
  util::Matrix ata(cols, cols);
  std::vector<double> aty(cols, 0.0);
  double* const g = ata.data().data();
  std::vector<const double*> lag_rows(cols);  // [k] = row t - k
  std::vector<double> x(cols);
  x[0] = 1.0;
  for (std::size_t t = l; t < history.size(); ++t) {
    for (std::size_t k = 0; k <= l; ++k) {
      lag_rows[k] = history.row(t - k).data();
    }
    for (std::size_t m = 0; m < n_modules; ++m) {
      // Lag k feature = T_{t-k}; most recent lag first.
      for (std::size_t k = 1; k <= l; ++k) x[k] = lag_rows[k][m];
      const double y = lag_rows[0][m];
      for (std::size_t r = 0; r < cols; ++r) {
        const double a = x[r];
        aty[r] += a * y;
        if (util::is_exactly_zero(a)) continue;  // Matrix product's skip
        for (std::size_t c = 0; c < cols; ++c) g[r * cols + c] += a * x[c];
      }
    }
  }
  beta_ = util::solve_normal_equations(std::move(ata), aty, params_.ridge);
  fitted_ = true;
}

std::vector<double> MlrPredictor::predict_next(
    const TemperatureHistory& history) const {
  if (!fitted_) throw std::logic_error("MlrPredictor: predict before fit");
  if (history.size() < params_.lags) {
    throw std::invalid_argument("MlrPredictor::predict_next: short history");
  }
  const std::size_t n_modules = history.num_modules();
  std::vector<double> out(n_modules);
  for (std::size_t m = 0; m < n_modules; ++m) {
    const std::vector<double> window = history.lag_window(m, params_.lags);
    double acc = beta_[0];
    for (std::size_t k = 0; k < params_.lags; ++k) {
      acc += beta_[k + 1] * window[k];
    }
    out[m] = acc;
  }
  return out;
}

}  // namespace tegrec::predict
