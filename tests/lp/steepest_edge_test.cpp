// Steepest-edge pricing must reach the same optimum as Dantzig on every
// LP, and — since the reference-framework weights track 1 + ‖B⁻¹A_j‖²
// exactly rather than Devex's approximation — it should stay within a
// modest pivot-count factor of Dantzig on degenerate instances (it
// usually needs fewer pivots).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "lp/problem.h"
#include "lp/simplex.h"

namespace mecsched::lp {
namespace {

SimplexOptions steepest_options() {
  SimplexOptions o;
  o.pricing = PricingRule::kSteepestEdge;
  return o;
}

TEST(SteepestEdgeTest, ClassicLpSameAnswer) {
  Problem p;
  const auto x = p.add_variable(-3.0, 0.0, kInfinity);
  const auto y = p.add_variable(-5.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  const Solution s = SimplexSolver(steepest_options()).solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(SteepestEdgeTest, BealeCyclingExampleTerminates) {
  Problem p;
  const auto x = p.add_variable(-0.75, 0.0, kInfinity);
  const auto y = p.add_variable(150.0, 0.0, kInfinity);
  const auto z = p.add_variable(-0.02, 0.0, kInfinity);
  const auto w = p.add_variable(6.0, 0.0, kInfinity);
  p.add_constraint({{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint({{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint({{z, 1.0}}, Relation::kLessEqual, 1.0);
  const Solution s = SimplexSolver(steepest_options()).solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-8);
}

class SteepestEdgeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SteepestEdgeEquivalence, MatchesDantzigOnRandomLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 7);
  const auto n = static_cast<std::size_t>(rng.uniform_int(3, 20));
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 14));
  Problem p;
  std::vector<double> x0(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ub = rng.uniform(0.5, 3.0);
    p.add_variable(rng.uniform(-5.0, 5.0), 0.0, ub);
    x0[i] = rng.uniform(0.0, ub);
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.bernoulli(0.6)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({i, c});
      lhs += c * x0[i];
    }
    if (terms.empty()) continue;
    p.add_constraint(std::move(terms), Relation::kLessEqual,
                     lhs + rng.uniform(0.05, 1.0));
  }

  const Solution dantzig = SimplexSolver().solve(p);
  const Solution steepest = SimplexSolver(steepest_options()).solve(p);
  ASSERT_TRUE(dantzig.optimal()) << "seed " << GetParam();
  ASSERT_TRUE(steepest.optimal()) << "seed " << GetParam();
  EXPECT_NEAR(dantzig.objective, steepest.objective,
              1e-6 * (1.0 + std::abs(dantzig.objective)))
      << "seed " << GetParam();
  EXPECT_LE(p.max_violation(steepest.x), 1e-6);
  // the exact weights should not blow up the pivot count
  EXPECT_LE(steepest.iterations, dantzig.iterations * 3 + 20)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Random, SteepestEdgeEquivalence,
                         ::testing::Range(0, 30));

TEST(SteepestEdgeTest, InfeasibleAndUnboundedDetectionUnaffected) {
  Problem inf;
  const auto x = inf.add_variable(1.0, 0.0, 1.0);
  inf.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(SimplexSolver(steepest_options()).solve(inf).status,
            SolveStatus::kInfeasible);

  Problem unb;
  const auto z = unb.add_variable(-1.0, 0.0, kInfinity);
  unb.add_constraint({{z, -1.0}}, Relation::kLessEqual, 0.0);
  EXPECT_EQ(SimplexSolver(steepest_options()).solve(unb).status,
            SolveStatus::kUnbounded);
}

}  // namespace
}  // namespace mecsched::lp
