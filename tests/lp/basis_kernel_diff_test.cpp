// Differential suite for the simplex basis kernel, at two levels.
//
// Kernel level: the eta-file LU (lp/basis_lu.h) and the dense reference
// inverse (tests/lp/reference/basis_dense.h) run identical factorize /
// FTRAN / BTRAN / update sequences (BasisReplay) over HTA-shaped column
// pools, and every solve must agree — at the default refactor budget, at
// a refactorization after every eta, and with the eta file left to grow
// until only the fill trigger stops it (eta-accumulation stress).
//
// Solve level: on seeded HTA-shaped, random boxed, degenerate and
// bound-flip-heavy instances, cold and warm-started, the simplex must
// reach the interior-point optimum. Both engines run under
// audit::Level::kFull, so every answer is certificate-checked inside
// solve() as well. The vertex is not compared: the IPM converges to the
// centre of a non-unique optimal face.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "audit/audit.h"
#include "common/rng.h"
#include "lp/basis_lu.h"
#include "lp/interior_point.h"
#include "lp/problem.h"
#include "lp/reference/basis_dense.h"
#include "lp/reference/basis_replay.h"
#include "lp/simplex.h"

namespace mecsched::lp {
namespace {

// Random feasible-by-construction boxed LP (same generator family as
// sparse_dense_diff_test.cpp).
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

// HTA-relaxation-shaped LP: the fig2a sweep-cell structure — one "pick one
// of 3 placements" equality row per task plus capacity rows.
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

// Heavily degenerate HTA shape: every placement of a task costs the same
// (pricing ties everywhere) and the capacity rows are exactly binding at
// the one-per-task vertex (degenerate ratio tests, Bland territory).
Problem degenerate_lp(mecsched::Rng& rng, std::size_t tasks) {
  Problem p;
  std::vector<std::array<std::size_t, 3>> vars(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    const double cost = rng.uniform(1.0, 4.0);  // tie across placements
    for (std::size_t l = 0; l < 3; ++l) {
      vars[t][l] = p.add_variable(cost, 0.0, 1.0);
    }
    p.add_constraint({{vars[t][0], 1.0}, {vars[t][1], 1.0}, {vars[t][2], 1.0}},
                     Relation::kEqual, 1.0);
  }
  // Capacity exactly equal to the number of contributing tasks: binding
  // with zero slack whenever every such task picks placement 0.
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<Term> cap;
    for (std::size_t t = c; t < tasks; t += 3) cap.push_back({vars[t][0], 1.0});
    const auto count = cap.size();
    if (cap.empty()) continue;
    p.add_constraint(std::move(cap), Relation::kLessEqual,
                     static_cast<double>(count));
  }
  return p;
}

// Bound-flip-heavy boxed LP: mixed-sign costs and a single loose coupling
// row, so most variables resolve by flipping between their finite bounds
// rather than entering the basis.
Problem bound_flip_lp(mecsched::Rng& rng, std::size_t n) {
  Problem p;
  std::vector<Term> row;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 2.5);
    p.add_variable(rng.bernoulli(0.5) ? rng.uniform(0.2, 3.0)
                                      : rng.uniform(-3.0, -0.2),
                   lo, hi);
    row.push_back({i, rng.uniform(0.1, 1.0)});
  }
  p.add_constraint(std::move(row), Relation::kLessEqual,
                   static_cast<double>(n));  // loose: rarely binding
  return p;
}

double norm_inf(const std::vector<double>& v) {
  double mx = 0.0;
  for (const double x : v) mx = std::max(mx, std::fabs(x));
  return mx;
}

void expect_close(const std::vector<double>& lu, const std::vector<double>& ref,
                  const char* what, std::size_t step, const char* label) {
  const double tol = 1e-8 * (1.0 + norm_inf(ref));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(lu[i], ref[i], tol)
        << label << " " << what << " step " << step << " row " << i;
  }
}

// Runs `rp` on both kernels in lockstep. Before every swap the FTRAN of
// the entering column and the BTRAN of a fixed probe vector must agree;
// the LU refactorizes on its own triggers (budget `max_etas`, fill,
// accuracy) while the reference only ever applies rank-1 updates. At the
// end both must solve the final basis. Returns the LU refactorization
// count so callers can check which path they exercised.
std::size_t expect_lockstep(const BasisReplay& rp, std::size_t max_etas,
                            const char* label) {
  const std::size_t m = rp.m;
  std::vector<std::size_t> basis = rp.initial_basis();
  BasisLu lu;
  lu.limits().max_etas = max_etas;
  BasisDense dense;
  const auto refactor = [&](auto& kernel) {
    const BasisReplay::Csc b = rp.gather(basis);
    kernel.factorize(m, b.ptr.data(), b.rows.data(), b.vals.data());
  };
  refactor(lu);
  refactor(dense);

  std::vector<double> probe(m);
  for (std::size_t r = 0; r < m; ++r) {
    probe[r] = 1.0 + 0.25 * static_cast<double>(r % 7);
  }
  std::vector<double> w_lu(m), w_ref(m), y_lu(m), y_ref(m);
  std::size_t refactors = 0;
  for (std::size_t k = 0; k < rp.steps.size(); ++k) {
    const BasisReplay::Step st = rp.steps[k];
    if (lu.needs_refactor()) {
      refactor(lu);
      ++refactors;
    }
    rp.scatter(st.entering, w_lu.data());
    w_ref = w_lu;
    lu.ftran(w_lu.data());
    dense.ftran(w_ref.data());
    expect_close(w_lu, w_ref, "ftran", k, label);
    y_lu = probe;
    y_ref = probe;
    lu.btran(y_lu.data());
    dense.btran(y_ref.data());
    expect_close(y_lu, y_ref, "btran", k, label);
    if (::testing::Test::HasFatalFailure()) return refactors;

    basis[st.row] = st.entering;
    if (!lu.push_eta(w_lu.data(), st.row, m)) {
      refactor(lu);
      ++refactors;
    }
    dense.update(w_ref.data(), st.row);
  }

  // Final basis: B x = probe through both kernels.
  std::vector<double> x_lu = probe, x_ref = probe;
  lu.ftran(x_lu.data());
  dense.ftran(x_ref.data());
  expect_close(x_lu, x_ref, "final ftran", rp.steps.size(), label);
  std::vector<double> bx(m, 0.0), col(m);
  for (std::size_t r = 0; r < m; ++r) {
    rp.scatter(basis[r], col.data());
    for (std::size_t i = 0; i < m; ++i) bx[i] += col[i] * x_lu[r];
  }
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(bx[i], probe[i], 1e-8 * (1.0 + norm_inf(probe)))
        << label << " residual row " << i;
  }
  return refactors;
}

BasisReplay hta_replay(std::uint64_t seed) {
  mecsched::Rng rng(seed);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(12, 60));
  const auto caps = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const Problem p = hta_shaped_lp(rng, tasks, caps);
  return make_basis_replay(p, 3 * p.num_constraints(), seed);
}

// Solve-level agreement: the simplex optimum against the interior-point
// optimum, both certificate-checked.
void expect_simplex_matches_ipm(const Problem& p, const char* label,
                                PricingRule pricing = PricingRule::kDantzig,
                                const std::vector<double>* guess = nullptr) {
  const audit::ScopedLevel full_audit(audit::Level::kFull);
  SimplexOptions o;
  o.pricing = pricing;
  const SimplexSolver simplex(o);
  const Solution smx = guess ? simplex.solve(p, *guess) : simplex.solve(p);
  const Solution ipm = InteriorPointSolver().solve(p);
  ASSERT_TRUE(smx.optimal()) << label;
  ASSERT_TRUE(ipm.optimal()) << label;
  const double scale = 1.0 + std::fabs(smx.objective);
  EXPECT_NEAR(smx.objective, ipm.objective, 1e-6 * scale) << label;
  EXPECT_LE(p.max_violation(smx.x), 1e-7) << label;
}

class BasisKernelDiff : public ::testing::TestWithParam<int> {};

TEST_P(BasisKernelDiff, AgreesOnHtaShapedLps) {
  // fig2a-shaped cells: the structure the sweep feeds LP-HTA.
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(12, 60));
  const auto caps = static_cast<std::size_t>(rng.uniform_int(2, 6));
  expect_simplex_matches_ipm(hta_shaped_lp(rng, tasks, caps), "hta");
}

TEST_P(BasisKernelDiff, AgreesOnRandomBoxedLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  const Problem p = random_boxed_lp(rng, 40, 30, 0.25);
  expect_simplex_matches_ipm(p, "boxed");
  expect_simplex_matches_ipm(p, "boxed-devex", PricingRule::kDevex);
}

TEST_P(BasisKernelDiff, AgreesOnDegenerateLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 593 + 41);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(9, 45));
  expect_simplex_matches_ipm(degenerate_lp(rng, tasks), "degenerate");
}

TEST_P(BasisKernelDiff, AgreesOnBoundFlipHeavyLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 71);
  const auto n = static_cast<std::size_t>(rng.uniform_int(20, 80));
  expect_simplex_matches_ipm(bound_flip_lp(rng, n), "bound-flip");
}

TEST_P(BasisKernelDiff, AgreesWarmStarted) {
  // Warm starts exercise the crash-basis path (slacks and bound-snapped
  // nonbasics instead of all-artificial).
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1223 + 97);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(10, 40));
  const Problem p = hta_shaped_lp(rng, tasks, 3);
  // Hint: placement 0 for every task — feasible for the equalities.
  std::vector<double> guess(p.num_variables(), 0.0);
  for (std::size_t t = 0; t < tasks; ++t) guess[3 * t] = 1.0;
  expect_simplex_matches_ipm(p, "warm", PricingRule::kDantzig, &guess);
}

TEST_P(BasisKernelDiff, LuMatchesDenseReferenceOnReplays) {
  const BasisReplay rp =
      hta_replay(static_cast<std::uint64_t>(GetParam()) * 2711 + 3);
  ASSERT_GE(rp.steps.size(), rp.m) << "replay too short to pivot the basis";
  expect_lockstep(rp, BasisLu::Limits{}.max_etas, "default-budget");
}

INSTANTIATE_TEST_SUITE_P(SeededInstances, BasisKernelDiff,
                         ::testing::Range(0, 12));

TEST(BasisKernelStress, EtaAccumulationStaysWithinCertificateTolerance) {
  // Force the two extremes of the eta/refactor trade-off on the same
  // instances: refactor_period=1 refactorizes after every pivot (ground
  // truth, no eta drift at all), a huge period lets the eta file grow
  // until the fill or accuracy triggers fire. Accumulated drift must stay
  // inside the LpCertificate tolerances — every solve here runs under
  // audit::Level::kFull, so the certificate (primal/dual feasibility,
  // complementary slackness, duality gap) is checked inside solve() and
  // any violation throws.
  audit::ScopedLevel full_audit(audit::Level::kFull);
  for (int seed = 0; seed < 6; ++seed) {
    mecsched::Rng rng(static_cast<std::uint64_t>(seed) * 4337 + 19);
    const Problem p = hta_shaped_lp(rng, 50, 5);

    SimplexOptions fresh;  // ground truth
    fresh.refactor_period = 1;
    SimplexOptions lazy;  // maximal eta accumulation
    lazy.refactor_period = 100'000;

    const Solution a = SimplexSolver(fresh).solve(p);
    const Solution b = SimplexSolver(lazy).solve(p);
    ASSERT_TRUE(a.optimal()) << "seed " << seed;
    ASSERT_TRUE(b.optimal()) << "seed " << seed;
    // 1e-6 relative: the LpCertificate duality-gap tolerance.
    const double scale = 1.0 + std::fabs(a.objective);
    EXPECT_NEAR(a.objective, b.objective, 1e-6 * scale) << "seed " << seed;
    EXPECT_LE(p.max_violation(b.x), 1e-7) << "seed " << seed;

    // The same extreme at kernel level: an eta file bounded only by the
    // fill trigger must keep every solve on the dense reference.
    const BasisReplay rp =
        make_basis_replay(p, 4 * p.num_constraints(),
                          static_cast<std::uint64_t>(seed) + 101);
    expect_lockstep(rp, 100'000, "eta-accumulation");
  }
}

TEST(BasisKernelStress, TinyRefactorPeriodMatchesDenseKernel) {
  // A refactorization after every eta: the LU's fresh-factorization path
  // on every step against the reference's pure rank-1 updates.
  const BasisReplay rp = hta_replay(2027);
  const std::size_t refactors = expect_lockstep(rp, 1, "refactor-every-eta");
  EXPECT_GE(refactors + 1, rp.steps.size());
}

}  // namespace
}  // namespace mecsched::lp
