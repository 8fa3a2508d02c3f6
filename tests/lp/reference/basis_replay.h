// A column-replacement sequence for driving simplex basis kernels outside
// the simplex, so the eta-file LU (lp/basis_lu.h) and the dense reference
// inverse (basis_dense.h) can be run on identical factorize / FTRAN /
// BTRAN / update sequences and compared or timed against each other.
//
// The column pool is [A | I] for an m×n constraint matrix A: the unit
// columns n..n+m-1 are the slack crash basis every replay starts from,
// and each step swaps one structural column into one basis row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/problem.h"

namespace mecsched::lp {

struct BasisReplay {
  struct Step {
    std::size_t entering;  // pool column
    std::size_t row;       // basis row it replaces
  };

  std::size_t m = 0;
  // CSC column pool, rows ascending within each column.
  std::vector<std::size_t> col_ptr{0};
  std::vector<std::size_t> col_row;
  std::vector<double> col_val;
  std::vector<Step> steps;

  // Pool columns of the starting basis, one per row.
  std::vector<std::size_t> initial_basis() const;

  // out := dense image of pool column j (m entries).
  void scatter(std::size_t j, double* out) const;

  // CSC of the basis columns, in basis-row order, for factorize().
  struct Csc {
    std::vector<std::size_t> ptr;
    std::vector<std::size_t> rows;
    std::vector<double> vals;
  };
  Csc gather(const std::vector<std::size_t>& basis) const;
};

// Builds up to `num_steps` swaps over [A | I], A the constraint rows of
// `p`. Each step enters a seeded random nonbasic structural column and,
// on the dense reference inverse, picks the row it replaces: the first
// row still holding a unit column among those with |w_r| >= 0.1·‖w‖∞
// (w = B⁻¹a), else the largest |w_r|. Columns whose image is numerically
// zero are skipped, so every step has a safe pivot on both kernels.
BasisReplay make_basis_replay(const Problem& p, std::size_t num_steps,
                              std::uint64_t seed);

}  // namespace mecsched::lp
