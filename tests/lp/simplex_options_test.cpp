// The simplex must reach the same optimum regardless of its tuning knobs
// (refactorization cadence, Bland trigger, tolerance) — these affect speed
// and numerical hygiene, never the answer.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "lp/problem.h"
#include "lp/simplex.h"

namespace mecsched::lp {
namespace {

Problem random_lp(mecsched::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(3, 15));
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 10));
  Problem p;
  std::vector<double> x0(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ub = rng.uniform(0.5, 3.0);
    p.add_variable(rng.uniform(-4.0, 4.0), 0.0, ub);
    x0[i] = rng.uniform(0.0, ub);
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.bernoulli(0.5)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({i, c});
      lhs += c * x0[i];
    }
    if (terms.empty()) continue;
    p.add_constraint(std::move(terms), Relation::kLessEqual,
                     lhs + rng.uniform(0.05, 1.0));
  }
  return p;
}

struct NamedOptions {
  const char* name;
  SimplexOptions options;
};

std::vector<NamedOptions> option_grid() {
  std::vector<NamedOptions> out;
  out.push_back({"default", SimplexOptions{}});

  SimplexOptions frequent_refactor;
  frequent_refactor.refactor_period = 1;  // refactorize every pivot
  out.push_back({"refactor-every-pivot", frequent_refactor});

  SimplexOptions zero_refactor;
  zero_refactor.refactor_period = 0;  // refactorize before every pivot
  out.push_back({"refactor-period-zero", zero_refactor});

  SimplexOptions rare_refactor;
  rare_refactor.refactor_period = 100'000;  // effectively never
  out.push_back({"refactor-never", rare_refactor});

  SimplexOptions eager_bland;
  eager_bland.bland_trigger = 0;  // Bland's rule from the first pivot
  out.push_back({"always-bland", eager_bland});

  SimplexOptions loose_tol;
  loose_tol.tolerance = 1e-7;
  out.push_back({"loose-tolerance", loose_tol});
  return out;
}

class SimplexKnobs : public ::testing::TestWithParam<int> {};

TEST_P(SimplexKnobs, AllConfigurationsAgree) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 509 + 23);
  const Problem p = random_lp(rng);
  const Solution reference = SimplexSolver().solve(p);
  ASSERT_TRUE(reference.optimal()) << "seed " << GetParam();

  for (const NamedOptions& cfg : option_grid()) {
    const Solution s = SimplexSolver(cfg.options).solve(p);
    ASSERT_TRUE(s.optimal()) << cfg.name << ", seed " << GetParam();
    EXPECT_NEAR(s.objective, reference.objective,
                1e-6 * (1.0 + std::abs(reference.objective)))
        << cfg.name << ", seed " << GetParam();
    EXPECT_LE(p.max_violation(s.x), 1e-6) << cfg.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SimplexKnobs, ::testing::Range(0, 20));

TEST(SimplexKnobsTest, TinyIterationLimitReportsLimit) {
  SimplexOptions opts;
  opts.max_iterations = 1;
  Problem p;
  const auto x = p.add_variable(-1.0, 0.0, kInfinity);
  const auto y = p.add_variable(-2.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 10.0);
  p.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::kLessEqual, 15.0);
  const Solution s = SimplexSolver(opts).solve(p);
  EXPECT_EQ(s.status, SolveStatus::kIterationLimit);
}

}  // namespace
}  // namespace mecsched::lp
