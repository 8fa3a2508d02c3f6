#include "assign/lp_hta.h"

#include <gtest/gtest.h>

#include "assign/evaluator.h"
#include "assign/exact.h"
#include "workload/scenario.h"

namespace mecsched::assign {
namespace {

workload::Scenario small_scenario(std::uint64_t seed, std::size_t tasks = 30,
                                  std::size_t devices = 10,
                                  std::size_t stations = 2) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.num_devices = devices;
  cfg.num_base_stations = stations;
  return workload::make_scenario(cfg);
}

TEST(LpHtaTest, ProducesDecisionPerTask) {
  const auto s = small_scenario(1);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_EQ(a.size(), inst.num_tasks());
}

TEST(LpHtaTest, SolutionIsAlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto s = small_scenario(seed, 40, 12, 3);
    const HtaInstance inst(s.topology, s.tasks);
    const Assignment a = LpHta().assign(inst);
    const FeasibilityReport rep = check_feasibility(inst, a);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": "
                        << (rep.problems.empty() ? "" : rep.problems[0]);
  }
}

TEST(LpHtaTest, NoCancellationsWhenCapacityIsAmple) {
  workload::ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.num_tasks = 40;
  cfg.device_capacity_min = 100.0;
  cfg.device_capacity_max = 100.0;
  cfg.station_capacity_per_device = 100.0;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_EQ(a.cancelled(), 0u);
}

TEST(LpHtaTest, ReportTracksTheoremTwoQuantities) {
  const auto s = small_scenario(7);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport rep;
  const Assignment a = LpHta().assign_with_report(inst, rep);
  const Metrics m = evaluate(inst, a);

  EXPECT_GT(rep.lp_objective, 0.0);
  // Lemma 1: the rounded point (which may sit outside the LP polytope, so
  // it is not bounded below by the LP optimum) costs at most 3x it.
  EXPECT_LE(rep.rounded_energy, 3.0 * rep.lp_objective + 1e-6);
  // final_energy matches the evaluator's total.
  EXPECT_NEAR(rep.final_energy, m.total_energy_j, 1e-9);
  EXPECT_GE(rep.theorem2_bound(), 3.0);
  // Corollary 1's bound is populated and the reported bound is their min.
  EXPECT_GT(rep.corollary1_bound, 0.0);
  EXPECT_LE(rep.ratio_bound(),
            std::min(rep.theorem2_bound(), rep.corollary1_bound) + 1e-12);
}

TEST(LpHtaTest, WithinLemmaOneFactorOfLpOptimum) {
  // Lemma 1: energy after rounding <= 3 * LP optimum. Steps 4-6 may add Δ,
  // so only the *rounded* energy is bounded by 3x.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto s = small_scenario(seed, 36, 12, 3);
    const HtaInstance inst(s.topology, s.tasks);
    LpHtaReport rep;
    LpHta().assign_with_report(inst, rep);
    EXPECT_LE(rep.rounded_energy, 3.0 * rep.lp_objective + 1e-6)
        << "seed " << seed;
  }
}

TEST(LpHtaTest, MatchesExactOptimumWithinTheoremBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto s = small_scenario(seed, 24, 8, 2);
    const HtaInstance inst(s.topology, s.tasks);
    LpHtaReport rep;
    const Assignment a = LpHta().assign_with_report(inst, rep);
    const ExactResult opt = ExactHta().solve(inst);
    if (!opt.proven_optimal) continue;  // capacity-infeasible corner

    const Metrics m = evaluate(inst, a);
    // Only compare when LP-HTA placed everything the optimum placed.
    if (a.cancelled() != opt.assignment.cancelled()) continue;
    EXPECT_GE(m.total_energy_j, opt.energy - 1e-6) << "seed " << seed;
    EXPECT_LE(m.total_energy_j, rep.ratio_bound() * opt.energy + 1e-6)
        << "seed " << seed;
  }
}

TEST(LpHtaTest, InteriorPointEngineAgreesWithSimplexEngine) {
  const auto s = small_scenario(11, 30, 10, 2);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport rs, ri;
  LpHta(LpHtaOptions{LpEngine::kSimplex}).assign_with_report(inst, rs);
  LpHta(LpHtaOptions{LpEngine::kInteriorPoint}).assign_with_report(inst, ri);
  // Same relaxation, so the LP optimum must agree between engines.
  EXPECT_NEAR(rs.lp_objective, ri.lp_objective,
              1e-4 * (1.0 + rs.lp_objective));
}

TEST(LpHtaTest, HopelessDeadlinesAreCancelled) {
  workload::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.num_tasks = 30;
  // slack < 1: deadlines tighter than the best achievable latency.
  cfg.deadline_slack_min = 0.01;
  cfg.deadline_slack_max = 0.05;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport rep;
  const Assignment a = LpHta().assign_with_report(inst, rep);
  EXPECT_EQ(a.cancelled(), inst.num_tasks());
  EXPECT_EQ(rep.cancelled_infeasible, inst.num_tasks());
  // and the result is still "feasible": nothing placed, nothing violated
  EXPECT_TRUE(check_feasibility(inst, a).ok);
}

TEST(LpHtaTest, TinyCapacitiesForceCancellationNotInfeasibility) {
  workload::ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.num_tasks = 40;
  cfg.num_devices = 8;
  cfg.num_base_stations = 2;
  cfg.device_capacity_min = 0.0;
  cfg.device_capacity_max = 0.5;       // almost nothing fits locally
  cfg.station_capacity_per_device = 0.25;  // stations tiny too
  // make cloud latency-infeasible for many tasks: tight deadlines
  cfg.deadline_slack_min = 1.05;
  cfg.deadline_slack_max = 1.2;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_TRUE(check_feasibility(inst, a).ok);
}

TEST(LpHtaTest, EmptyInstance) {
  workload::ScenarioConfig cfg;
  cfg.num_tasks = 0;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_EQ(a.size(), 0u);
}

// Warm hints feed the cluster LPs a crash basis; the LP optimum — and so
// the Theorem-2 diagnostics built on it — must not move. This is the
// warm-start-equals-cold-start guarantee the sweep cache relies on.
TEST(LpHtaTest, WarmHintPreservesTheLpObjective) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto s = small_scenario(seed, 40, 12, 3);
    const HtaInstance inst(s.topology, s.tasks);

    LpHtaReport cold_report;
    const Assignment cold = LpHta().assign_with_report(inst, cold_report);

    // Hint with the cold solution itself (the best case) and with a plan
    // for a *different* instance (the adjacent-cell case).
    const auto other = small_scenario(seed + 100, 40, 12, 3);
    const HtaInstance other_inst(other.topology, other.tasks);
    const Assignment other_plan = LpHta().assign(other_inst);

    for (const Assignment* hint : {&cold, &other_plan}) {
      LpHtaOptions options;
      options.warm_hint = hint;
      LpHtaReport warm_report;
      const Assignment warm =
          LpHta(options).assign_with_report(inst, warm_report);
      EXPECT_NEAR(warm_report.lp_objective, cold_report.lp_objective,
                  1e-6 * (1.0 + cold_report.lp_objective))
          << "seed " << seed;
      EXPECT_TRUE(check_feasibility(inst, warm).ok) << "seed " << seed;
    }
  }
}

// A hint that is plain garbage (wrong size, all-cancel) must not break
// correctness either — it only changes the pivot path.
TEST(LpHtaTest, DegenerateWarmHintsAreHarmless) {
  const auto s = small_scenario(2);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport cold_report;
  LpHta().assign_with_report(inst, cold_report);

  Assignment short_hint;  // covers no tasks
  Assignment cancel_hint;
  cancel_hint.decisions.assign(inst.num_tasks(), Decision::kCancelled);
  for (const Assignment* hint : {&short_hint, &cancel_hint}) {
    LpHtaOptions options;
    options.warm_hint = hint;
    LpHtaReport warm_report;
    const Assignment warm = LpHta(options).assign_with_report(inst, warm_report);
    EXPECT_NEAR(warm_report.lp_objective, cold_report.lp_objective,
                1e-6 * (1.0 + cold_report.lp_objective));
    EXPECT_TRUE(check_feasibility(inst, warm).ok);
  }
}

// The pricing rule is an implementation detail of Step 1: different pivot
// paths, same assignment (the rounding in Steps 2-6 is deterministic in
// the LP vertex, and these cluster LPs have unique optima for generic
// costs).
TEST(LpHtaTest, PricingRulesProduceIdenticalAssignments) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto s = small_scenario(seed, 36, 12, 3);
    const HtaInstance inst(s.topology, s.tasks);
    const Assignment base = LpHta().assign(inst);
    for (const lp::PricingRule rule :
         {lp::PricingRule::kDevex, lp::PricingRule::kSteepestEdge}) {
      LpHtaOptions options;
      options.pricing = rule;
      const Assignment other = LpHta(options).assign(inst);
      EXPECT_EQ(base.decisions, other.decisions)
          << "seed " << seed << " rule " << static_cast<int>(rule);
    }
  }
}

}  // namespace
}  // namespace mecsched::assign
