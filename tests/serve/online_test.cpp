// Online scheduling on the serve path: the rolling-horizon LP-HTA policy
// (one shard, one attempt per task, no churn, cold solves) over Poisson
// task streams, checked against the simulator, the clairvoyant offline
// plan and fates pinned for seeds 1-5.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/error.h"
#include "fate_digest.h"
#include "serve/daemon.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"

namespace mecsched::serve {
namespace {

using assign::Decision;

workload::TimedScenario timed(std::uint64_t seed, std::size_t tasks = 50,
                              double rate = 25.0) {
  workload::ArrivalConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.num_tasks = tasks;
  cfg.scenario.num_devices = 15;
  cfg.scenario.num_base_stations = 3;
  cfg.arrival_rate_per_s = rate;
  return workload::make_timed_scenario(cfg);
}

struct OnlineRun {
  ServeResult result;
  std::vector<TaskOutcome> outcomes;  // aligned with the scenario's tasks
  double mean_response_s = 0.0;       // finish - release over placed tasks
  std::size_t cancelled = 0;
};

OnlineRun run_online(const workload::TimedScenario& s, double epoch_s = 0.5) {
  ServeOptions opts;
  opts.batching.window_s = epoch_s;
  opts.readmission.max_attempts = 1;
  opts.warm_start = false;
  OnlineRun run;
  run.result = ServeDaemon(opts).run(s.topology, workload::to_serve_trace(s),
                                     nullptr, {}, nullptr, &run.outcomes);
  run.mean_response_s = workload::mean_response_s(s, run.outcomes);
  run.cancelled = run.result.expired + run.result.exhausted;
  return run;
}

TEST(OnlineSchedulerTest, EveryTaskGetsAnOutcome) {
  const auto s = timed(1);
  const OnlineRun r = run_online(s);
  ASSERT_EQ(r.outcomes.size(), s.tasks.size());
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const TaskOutcome& o = r.outcomes[i];
    EXPECT_EQ(o.attempts, 1u);
    if (o.decision == Decision::kCancelled) continue;
    EXPECT_GE(o.start_s, s.tasks[i].release_s);  // never before release
    EXPECT_GT(o.finish_s, o.start_s);
  }
  EXPECT_EQ(r.result.decisions + r.cancelled, s.tasks.size());
  EXPECT_GT(r.result.decide_epochs, 1u);
  EXPECT_GT(r.result.total_energy_j, 0.0);
}

TEST(OnlineSchedulerTest, EmptyStream) {
  auto s = timed(2, 5);
  s.tasks.clear();
  const OnlineRun r = run_online(s);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.result.decide_epochs, 0u);
}

TEST(OnlineSchedulerTest, StartsAlignToEpochBoundaries) {
  const auto s = timed(3);
  const OnlineRun r = run_online(s, 0.25);
  for (const TaskOutcome& o : r.outcomes) {
    if (o.decision == Decision::kCancelled) continue;
    const double k = o.start_s / 0.25;
    EXPECT_NEAR(k, std::round(k), 1e-9);
  }
}

TEST(OnlineSchedulerTest, ResponseIncludesWaiting) {
  // Mean response >= mean service latency because of epoch batching.
  const auto s = timed(4);
  const OnlineRun r = run_online(s);
  double service = 0.0;
  std::size_t placed = 0;
  for (const TaskOutcome& o : r.outcomes) {
    if (o.decision == Decision::kCancelled) continue;
    service += o.finish_s - o.start_s;
    ++placed;
  }
  ASSERT_GT(placed, 0u);
  EXPECT_GE(r.mean_response_s, service / static_cast<double>(placed) - 1e-9);
}

TEST(OnlineSchedulerTest, NeverExceedsOfflineEnergyByMuchOnSlackSystems) {
  // With light load the online policy should track the clairvoyant
  // offline assignment (same tasks, all known upfront) closely.
  const auto s = timed(5, 40, /*rate=*/5.0);  // light load
  const OnlineRun online = run_online(s);

  std::vector<mec::Task> all;
  for (const auto& t : s.tasks) all.push_back(t.task);
  const assign::HtaInstance inst(s.topology, all);
  const assign::Metrics offline =
      assign::evaluate(inst, assign::LpHta().assign(inst));

  EXPECT_GE(online.result.total_energy_j, offline.total_energy_j * 0.5);
  EXPECT_LE(online.result.total_energy_j, offline.total_energy_j * 1.5);
}

TEST(OnlineSchedulerTest, SlowEpochsIncreaseCancellations) {
  // Batching at 2 s eats most of a ~1-3 s relative deadline.
  const auto s = timed(6, 60, 30.0);
  EXPECT_LE(run_online(s, 0.1).cancelled, run_online(s, 2.0).cancelled);
}

TEST(OnlineSchedulerTest, OutcomesReplayExactlyOnTheSimulator) {
  // Cross-module validation: replaying the daemon's decisions on the DES
  // with release times = the decision epochs must reproduce the analytic
  // finish times exactly (no contention).
  const auto s = timed(10, 30);
  const OnlineRun r = run_online(s);

  std::vector<mec::Task> tasks;
  sim::SimOptions opts;
  assign::Assignment plan;
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    tasks.push_back(s.tasks[i].task);
    plan.decisions.push_back(r.outcomes[i].decision);
    opts.release_times.push_back(r.outcomes[i].start_s);
  }
  const assign::HtaInstance inst(s.topology, tasks);
  const sim::SimResult replay = sim::simulate(inst, plan, opts);
  std::size_t placed = 0;
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    if (r.outcomes[i].decision == Decision::kCancelled) continue;
    ++placed;
    EXPECT_NEAR(replay.timelines[i].finish_s, r.outcomes[i].finish_s,
                1e-9 * (1.0 + r.outcomes[i].finish_s))
        << "task " << i;
  }
  EXPECT_GT(placed, 0u);
}

TEST(OnlineSchedulerTest, RejectsNonPositiveEpoch) {
  const auto s = timed(7, 5);
  EXPECT_THROW(run_online(s, 0.0), ModelError);
}

// Per-task fates (fate, decision, start, finish, attempts) of the
// default timed scenario, seeds 1-5, as the dedicated online scheduler
// produced them before it was folded into the daemon.
TEST(OnlineSchedulerTest, MatchesPinnedFatesOnSeedsOneToFive) {
  const std::uint64_t pinned[] = {
      0xd09cd91d92067a30ull, 0x83fc3c5c5f61e6d5ull, 0x8d9f4d3aa36fc2cbull,
      0x48942ed0a2243902ull, 0x56a38a0d6a42b9a6ull};
  const std::size_t cancelled[] = {5, 12, 8, 7, 18};
  const std::size_t epochs[] = {11, 9, 12, 12, 10};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::ArrivalConfig cfg;
    cfg.scenario.seed = seed;
    const OnlineRun r = run_online(workload::make_timed_scenario(cfg));
    EXPECT_EQ(r.cancelled, cancelled[seed - 1]) << "seed " << seed;
    EXPECT_EQ(r.result.decide_epochs, epochs[seed - 1]) << "seed " << seed;
    EXPECT_EQ(fate_digest(r.outcomes, /*online=*/true), pinned[seed - 1])
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace mecsched::serve
