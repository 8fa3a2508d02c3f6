#include "lp/reference/cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mecsched::lp {

Matrix normal_matrix(const Matrix& a, const std::vector<double>& d) {
  MECSCHED_REQUIRE(d.size() == a.cols(), "normal_matrix scaling size mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix out(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    const double* ri = a.row(i);
    for (std::size_t j = i; j < m; ++j) {
      const double* rj = a.row(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += ri[k] * d[k] * rj[k];
      out(i, j) = acc;
      out(j, i) = acc;
    }
  }
  return out;
}

double backward_error(const Matrix& m, const std::vector<double>& x,
                      const std::vector<double>& b) {
  const std::vector<double> mx = m.multiply(x);
  double m_norm = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) row_sum += std::fabs(m(i, j));
    m_norm = std::max(m_norm, row_sum);
  }
  double residual = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    residual = std::max(residual, std::fabs(mx[i] - b[i]));
  }
  const double denom = m_norm * norm_inf(x) + norm_inf(b);
  return denom > 0.0 ? residual / denom : residual;
}

Cholesky::Cholesky(const Matrix& a) {
  MECSCHED_REQUIRE(a.rows() == a.cols(), "Cholesky needs a square matrix");
  const std::size_t n = a.rows();
  l_ = Matrix(n, n);

  // Pivot floor relative to the matrix scale; pivots below this get bumped.
  const double scale = std::max(a.max_abs(), 1.0);
  const double floor = 1e-12 * scale;

  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < n && k < j; ++k) {
      diag -= l_(j, k) * l_(j, k);
    }
    if (diag < floor) {
      // Regularize: shift this pivot up to the floor. IPM systems only
      // become semidefinite, never strongly indefinite, so a large negative
      // pivot signals a modelling bug and is rejected.
      if (diag < -1e-6 * scale) {
        throw SolverError("Cholesky: matrix is indefinite");
      }
      regularization_ += floor - diag;
      diag = floor;
    }
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l_(i, k) * l_(j, k);
      l_(i, j) = v / ljj;
    }
  }
}

std::vector<double> Cholesky::solve(const std::vector<double>& b) const {
  const std::size_t n = l_.rows();
  MECSCHED_REQUIRE(b.size() == n, "Cholesky solve size mismatch");

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    const double* li = l_.row(i);
    for (std::size_t k = 0; k < i; ++k) v -= li[k] * y[k];
    y[i] = v / li[i];
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l_(k, ii) * x[k];
    x[ii] = v / l_(ii, ii);
  }
  return x;
}

}  // namespace mecsched::lp
