// Dense row-major matrix for the LP reference kernels.
//
// The solvers in src/lp run on sparse storage only. This test-only type
// backs the simple, auditable dense comparators (reference Cholesky,
// explicit basis inverse) that the differential tests and the kernel
// bench check the sparse kernels against — see docs/lp-kernels.md.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/sparse_matrix.h"

namespace mecsched::lp {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  // Pointer to the start of row `r` (contiguous, `cols()` entries).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  Matrix transposed() const;

  // y = this * x  (x.size() == cols()).
  std::vector<double> multiply(const std::vector<double>& x) const;

  // y = this^T * x  (x.size() == rows()).
  std::vector<double> multiply_transpose(const std::vector<double>& x) const;

  // C = this * other.
  Matrix multiply(const Matrix& other) const;

  // Frobenius-norm-style max absolute entry (used for scaling/tolerances).
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Dense bridge to the CSR kernels. `sparse_from_dense` drops entries with
// |v| <= drop_tolerance.
SparseMatrix sparse_from_dense(const Matrix& dense,
                               double drop_tolerance = 0.0);
Matrix to_dense(const SparseMatrix& sparse);

// Dense vector helpers.
double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm_inf(const std::vector<double>& v);
double norm2(const std::vector<double>& v);
// a += s * b
void axpy(double s, const std::vector<double>& b, std::vector<double>& a);

}  // namespace mecsched::lp
