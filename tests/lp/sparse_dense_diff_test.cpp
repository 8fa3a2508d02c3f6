// Differential suite for the interior-point normal-equation kernel and
// the simplex's CSC pricing, on randomized HTA-shaped instances across
// density regimes plus the all-dense and empty-pattern edge cases.
//
//   * normal equations — the sparse NormalCholesky (lp/sparse_cholesky.h)
//     and the dense reference (tests/lp/reference/cholesky.h) factor the
//     same A·D·Aᵀ, for the standard-form A the IPM builds, and must solve
//     it to the same answer across the IPM's dynamic range of D; the IPM
//     built on the sparse kernel must then reach the simplex optimum;
//   * simplex pricing — the CSC column store drops stored zeros, so a
//     problem that lists every coefficient (zeros included) must take
//     exactly the pivots of its sparse statement: identical reduced costs
//     => identical pivot sequence => identical vertex and iteration count.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "lp/interior_point.h"
#include "lp/problem.h"
#include "lp/reference/cholesky.h"
#include "lp/reference/matrix.h"
#include "lp/simplex.h"
#include "lp/sparse_cholesky.h"
#include "lp/sparse_matrix.h"
#include "lp/standard_form.h"

namespace mecsched::lp {
namespace {

// Random feasible-by-construction boxed LP (the cross_check_test generator
// with a tunable row density).
Problem random_boxed_lp(mecsched::Rng& rng, std::size_t n, std::size_t m,
                        double row_density) {
  Problem p;
  std::vector<double> x0(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ub = rng.uniform(0.5, 3.0);
    p.add_variable(rng.uniform(-5.0, 5.0), 0.0, ub);
    x0[i] = rng.uniform(0.0, ub);
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<Term> terms;
    double lhs_at_x0 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.bernoulli(row_density)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({i, c});
      lhs_at_x0 += c * x0[i];
    }
    if (terms.empty()) continue;
    p.add_constraint(std::move(terms), Relation::kLessEqual,
                     lhs_at_x0 + rng.uniform(0.1, 2.0));
  }
  return p;
}

// HTA-relaxation-shaped LP: one "pick one of 3 placements" equality row
// per task plus a handful of capacity rows — the structure LP-HTA feeds
// the solvers.
Problem hta_shaped_lp(mecsched::Rng& rng, std::size_t tasks,
                      std::size_t capacity_rows) {
  Problem p;
  std::vector<std::array<std::size_t, 3>> vars(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t l = 0; l < 3; ++l) {
      vars[t][l] = p.add_variable(rng.uniform(0.1, 10.0), 0.0, 1.0);
    }
    p.add_constraint({{vars[t][0], 1.0}, {vars[t][1], 1.0}, {vars[t][2], 1.0}},
                     Relation::kEqual, 1.0);
  }
  for (std::size_t c = 0; c < capacity_rows; ++c) {
    std::vector<Term> cap;
    for (std::size_t t = c; t < tasks; t += capacity_rows) {
      cap.push_back({vars[t][c % 3], rng.uniform(0.5, 2.0)});
    }
    if (cap.empty()) continue;
    p.add_constraint(std::move(cap), Relation::kLessEqual,
                     static_cast<double>(tasks));
  }
  return p;
}

// NormalCholesky vs the dense reference on A·D·Aᵀ for the standard form
// of `p`. With D within two decades of 1 (the IPM's early iterations) M
// is well enough conditioned that both solves must agree. As the iterates
// approach a vertex, x/s spreads over many decades and M becomes too
// ill-conditioned for any two factorizations to agree; there both must
// stay backward stable instead.
void expect_normal_solves_agree(const Problem& p, std::uint64_t seed,
                                const char* label) {
  const StandardForm sf = to_standard_form(p);
  const SparseMatrix& a = sf.a;
  const SparseMatrix at = a.transposed();
  const auto sym = std::make_shared<const NormalEquationsSymbolic>(a);
  const Matrix a_dense = to_dense(a);
  mecsched::Rng rng(seed);
  for (const double spread : {0.0, 1.0, 2.0, 8.0}) {
    std::vector<double> d(a.cols());
    for (double& v : d) v = std::pow(10.0, rng.uniform(-spread, spread));
    std::vector<double> b(a.rows());
    for (double& v : b) v = rng.uniform(-1.0, 1.0);

    const Matrix m = normal_matrix(a_dense, d);
    const std::vector<double> sparse = NormalCholesky(a, at, d, sym).solve(b);
    const std::vector<double> dense = Cholesky(m).solve(b);
    ASSERT_EQ(sparse.size(), dense.size()) << label;
    EXPECT_LE(backward_error(m, sparse, b), 1e-12)
        << label << " spread " << spread;
    EXPECT_LE(backward_error(m, dense, b), 1e-12)
        << label << " spread " << spread;
    if (spread > 2.0) continue;
    const double scale = 1.0 + norm_inf(dense);
    for (std::size_t i = 0; i < dense.size(); ++i) {
      EXPECT_NEAR(sparse[i], dense[i], 1e-6 * scale)
          << label << " spread " << spread << " row " << i;
    }
  }
}

void expect_ipm_matches_simplex(const Problem& p, const char* label) {
  const Solution ipm = InteriorPointSolver().solve(p);
  const Solution smx = SimplexSolver().solve(p);
  ASSERT_TRUE(ipm.optimal()) << label;
  ASSERT_TRUE(smx.optimal()) << label;
  const double scale = 1.0 + std::fabs(smx.objective);
  EXPECT_NEAR(ipm.objective, smx.objective, 1e-6 * scale) << label;
  EXPECT_LE(p.max_violation(ipm.x), 1e-5) << label;
}

// `p` with every constraint row listing every variable, zeros included.
Problem with_explicit_zeros(const Problem& p) {
  Problem out;
  for (std::size_t v = 0; v < p.num_variables(); ++v) {
    out.add_variable(p.cost(v), p.lower(v), p.upper(v));
  }
  for (std::size_t r = 0; r < p.num_constraints(); ++r) {
    const Constraint& c = p.constraint(r);
    std::vector<Term> terms;
    for (std::size_t v = 0; v < p.num_variables(); ++v) {
      terms.push_back({v, 0.0});
    }
    for (const Term& t : c.terms) terms[t.var].coeff = t.coeff;
    out.add_constraint(std::move(terms), c.relation, c.rhs);
  }
  return out;
}

void expect_simplex_paths_identical(const Problem& p, PricingRule pricing,
                                    const char* label) {
  SimplexOptions o;
  o.pricing = pricing;
  const Solution dense = SimplexSolver(o).solve(with_explicit_zeros(p));
  const Solution sparse = SimplexSolver(o).solve(p);
  ASSERT_TRUE(dense.optimal()) << label;
  ASSERT_TRUE(sparse.optimal()) << label;
  // Same pivots, same vertex — exact agreement, not tolerance agreement.
  EXPECT_EQ(dense.iterations, sparse.iterations) << label;
  EXPECT_EQ(dense.objective, sparse.objective) << label;
  EXPECT_EQ(dense.x, sparse.x) << label;
  EXPECT_EQ(dense.duals, sparse.duals) << label;
}

class SparseDenseDiff : public ::testing::TestWithParam<int> {};

TEST_P(SparseDenseDiff, IpmAgreesOnHtaShapedLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(12, 48));
  const auto caps = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const Problem p = hta_shaped_lp(rng, tasks, caps);
  expect_normal_solves_agree(p, static_cast<std::uint64_t>(GetParam()), "hta");
  expect_ipm_matches_simplex(p, "hta");
}

TEST_P(SparseDenseDiff, IpmAgreesAcrossDensityRegimes) {
  const std::array<double, 3> densities = {0.05, 0.3, 0.9};
  for (const double density : densities) {
    mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 11);
    const Problem p = random_boxed_lp(rng, 45, 36, density);
    expect_normal_solves_agree(p, static_cast<std::uint64_t>(GetParam()) + 7,
                               "density");
    expect_ipm_matches_simplex(p, "density");
  }
}

TEST_P(SparseDenseDiff, SimplexPricingIsBitIdentical) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2713 + 29);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(10, 40));
  const Problem p = hta_shaped_lp(rng, tasks, 4);
  expect_simplex_paths_identical(p, PricingRule::kDantzig, "dantzig");
  expect_simplex_paths_identical(p, PricingRule::kDevex, "devex");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SparseDenseDiff,
                         ::testing::Range(0, 12));

TEST(SparseDenseDiffEdge, DegenerateAllDenseMatrix) {
  // Every coefficient nonzero: the worst case for the sparse structures,
  // which must still match the dense reference.
  mecsched::Rng rng(17);
  const Problem p = random_boxed_lp(rng, 40, 34, 1.0);
  expect_normal_solves_agree(p, 17, "all-dense");
  expect_ipm_matches_simplex(p, "all-dense");
  expect_simplex_paths_identical(p, PricingRule::kDantzig, "all-dense");
}

TEST(SparseDenseDiffEdge, EmptyConstraintPattern) {
  // No constraints and no finite upper bounds: the standard form has a
  // 0-row A, so the normal equations are empty.
  Problem p;
  for (int i = 0; i < 6; ++i) p.add_variable(1.0 + i, 0.0, kInfinity);
  const Solution s = InteriorPointSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 0.0, 1e-6);
  EXPECT_EQ(to_standard_form(p).a.rows(), 0u);
}

}  // namespace
}  // namespace mecsched::lp
