#include "lp/reference/basis_replay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "lp/reference/basis_dense.h"
#include "lp/sparse_matrix.h"

namespace mecsched::lp {

std::vector<std::size_t> BasisReplay::initial_basis() const {
  const std::size_t n = col_ptr.size() - 1 - m;
  std::vector<std::size_t> basis(m);
  for (std::size_t r = 0; r < m; ++r) basis[r] = n + r;
  return basis;
}

void BasisReplay::scatter(std::size_t j, double* out) const {
  std::fill(out, out + m, 0.0);
  for (std::size_t p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
    out[col_row[p]] = col_val[p];
  }
}

BasisReplay::Csc BasisReplay::gather(
    const std::vector<std::size_t>& basis) const {
  Csc out;
  out.ptr.push_back(0);
  for (const std::size_t j : basis) {
    for (std::size_t p = col_ptr[j]; p < col_ptr[j + 1]; ++p) {
      out.rows.push_back(col_row[p]);
      out.vals.push_back(col_val[p]);
    }
    out.ptr.push_back(out.rows.size());
  }
  return out;
}

BasisReplay make_basis_replay(const Problem& p, std::size_t num_steps,
                              std::uint64_t seed) {
  BasisReplay rp;
  rp.m = p.num_constraints();
  const std::size_t m = rp.m;
  const std::size_t n = p.num_variables();
  // A as CSR via triplets (duplicates sum); its transpose is A's CSC.
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < m; ++r) {
    for (const Term& t : p.constraint(r).terms) {
      triplets.push_back({r, t.var, t.coeff});
    }
  }
  const SparseMatrix at =
      SparseMatrix::from_triplets(m, n, std::move(triplets)).transposed();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = at.row_ptr()[j]; k < at.row_ptr()[j + 1]; ++k) {
      rp.col_row.push_back(at.col_idx()[k]);
      rp.col_val.push_back(at.values()[k]);
    }
    rp.col_ptr.push_back(rp.col_row.size());
  }
  for (std::size_t r = 0; r < m; ++r) {
    rp.col_row.push_back(r);
    rp.col_val.push_back(1.0);
    rp.col_ptr.push_back(rp.col_row.size());
  }
  if (m == 0 || n == 0) return rp;

  std::vector<std::size_t> basis = rp.initial_basis();
  std::vector<bool> is_basic(n + m, false);
  for (const std::size_t j : basis) is_basic[j] = true;
  BasisDense dense;
  const BasisReplay::Csc b0 = rp.gather(basis);
  dense.factorize(m, b0.ptr.data(), b0.rows.data(), b0.vals.data());

  Rng rng(seed);
  std::vector<double> w(m);
  // Bounded attempts: a pool that runs out of usable columns ends early.
  for (std::size_t attempt = 0;
       rp.steps.size() < num_steps && attempt < 8 * num_steps; ++attempt) {
    const auto q = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (is_basic[q]) continue;
    rp.scatter(q, w.data());
    dense.ftran(w.data());
    double w_max = 0.0;
    std::size_t r_max = 0;
    for (std::size_t r = 0; r < m; ++r) {
      if (std::fabs(w[r]) > w_max) {
        w_max = std::fabs(w[r]);
        r_max = r;
      }
    }
    if (w_max < 1e-9) continue;
    std::size_t row = r_max;
    for (std::size_t r = 0; r < m; ++r) {
      if (basis[r] >= n && std::fabs(w[r]) >= 0.1 * w_max) {
        row = r;
        break;
      }
    }
    is_basic[basis[row]] = false;
    is_basic[q] = true;
    basis[row] = q;
    rp.steps.push_back({q, row});
    // Rebuild the reference inverse periodically so rank-1 drift never
    // steers the row choice.
    if (rp.steps.size() % 64 == 0) {
      const BasisReplay::Csc b = rp.gather(basis);
      dense.factorize(m, b.ptr.data(), b.rows.data(), b.vals.data());
    } else {
      dense.update(w.data(), row);
    }
  }
  return rp;
}

}  // namespace mecsched::lp
