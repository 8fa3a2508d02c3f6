// Dense Cholesky factorization for symmetric positive-definite systems —
// the reference the sparse normal-equation factorization
// (lp/sparse_cholesky.h) is tested against on the same A·D·Aᵀ. Near the
// central-path boundary IPM normal equations become ill-conditioned, so
// both apply a tiny diagonal regularization when a pivot drops below a
// floor relative to the matrix scale instead of failing.
#pragma once

#include <vector>

#include "lp/reference/matrix.h"

namespace mecsched::lp {

// Dense M = A·diag(d)·Aᵀ, assembled pairwise over the rows of A (O(m²n)):
// the normal-equation matrix the reference Cholesky factors.
Matrix normal_matrix(const Matrix& a, const std::vector<double>& d);

// Normwise backward error of a solve of M x = b:
// ‖M x − b‖∞ / (‖M‖∞‖x‖∞ + ‖b‖∞). A stable factorization keeps it near
// machine precision however ill-conditioned M is, so it is the check that
// still means something where two solvers' answers legitimately differ.
double backward_error(const Matrix& m, const std::vector<double>& x,
                      const std::vector<double>& b);

class Cholesky {
 public:
  // Factors `a` (must be square, symmetric). Throws SolverError if the
  // matrix is indefinite beyond what regularization can absorb.
  explicit Cholesky(const Matrix& a);

  // Solves L L^T x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  // Total diagonal shift added during factorization (0 when the input was
  // comfortably positive definite). Exposed for diagnostics/tests.
  double regularization() const { return regularization_; }

 private:
  Matrix l_;  // lower-triangular factor
  double regularization_ = 0.0;
};

}  // namespace mecsched::lp
