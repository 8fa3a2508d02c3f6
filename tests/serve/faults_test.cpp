// The serve daemon under infrastructure faults: a sim::FaultSchedule
// converted to a trace (workload::to_serve_trace). The headline scenario
// is a seeded fault drill — three device failures, one recovery and one
// station outage — under which the daemon must strictly beat replaying a
// one-shot clairvoyant LP-HTA plan through the same schedule, rescue an
// orphaned divisible task by DTA re-division, and absorb a forced LP-HTA
// SolverError without aborting. Fates of the churn ablation's recipe are
// pinned.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/error.h"
#include "mec/cost_model.h"
#include "fate_digest.h"
#include "serve/daemon.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"
#include "workload/faults.h"

namespace mecsched::serve {
namespace {

using assign::Decision;
using control::FallbackRung;
using sim::FaultKind;
using sim::FaultSchedule;

mec::Topology topology(std::uint64_t seed = 21) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = 1;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  return workload::make_scenario(cfg).topology;
}

mec::Task task(std::size_t issuer, std::size_t index, double alpha_bytes,
               double beta_bytes, std::size_t owner, double deadline_s) {
  mec::Task t;
  t.id = {issuer, index};
  t.local_bytes = alpha_bytes;
  t.external_bytes = beta_bytes;
  t.external_owner = owner;
  t.deadline_s = deadline_s;
  return t;
}

// The fault policy's options: one shard and cold solves, so each epoch's
// plan depends on its own batch alone.
ServeOptions fault_options(std::size_t max_attempts = 3) {
  ServeOptions opts;
  opts.readmission.max_attempts = max_attempts;
  opts.warm_start = false;
  return opts;
}

struct FaultRun {
  ServeResult result;
  std::vector<TaskOutcome> outcomes;  // aligned with the scenario's tasks
  std::size_t unsatisfied() const {
    return outcomes.size() - result.completed;
  }
};

FaultRun run_faults(const ServeOptions& opts,
                    const workload::TimedScenario& s,
                    const FaultSchedule& faults,
                    const SharedDataView* shared = nullptr) {
  FaultRun run;
  run.result =
      ServeDaemon(opts).run(s.topology, workload::to_serve_trace(s, faults),
                            nullptr, {}, shared, &run.outcomes);
  return run;
}

// The drill: devices from cluster 0 host the owner-failure stories, cluster
// 1 hosts the cell outage, and one issuer dies outright.
struct Drill {
  workload::TimedScenario scenario{topology(), {}};
  FaultSchedule faults;
  SharedDataView shared;

  std::size_t issuer_a = 0, owner_a = 0;    // owner fails at 0, back at 2
  std::size_t issuer_b = 0, owner_b = 0;    // owner dies at 1, stays down
  std::size_t replica_b = 0;                // second copy of B's data item
  std::size_t issuer_c = 0;                 // in the dark cell
  std::size_t dead_issuer = 0;              // dies at 0, stays down

  Drill() {
    const mec::Topology& topo = scenario.topology;
    std::vector<workload::TimedTask>& tasks = scenario.tasks;
    const std::vector<std::size_t>& c0 = topo.cluster(0);
    const std::vector<std::size_t>& c1 = topo.cluster(1);
    EXPECT_GE(c0.size(), 5u);
    EXPECT_GE(c1.size(), 2u);
    issuer_a = c0[0];
    owner_a = c0[1];
    issuer_b = c0[2];
    owner_b = c0[3];
    replica_b = c0[4];
    issuer_c = c1[0];
    dead_issuer = c1[1];

    // A1/A2: external data on owner_a; lost to the replay, retried by the
    // daemon once owner_a recovers at t = 2.
    tasks.push_back({task(issuer_a, 0, 100e3, 500e3, owner_a, 20.0), 0.0});
    tasks.push_back({task(issuer_a, 1, 100e3, 500e3, owner_a, 20.0), 0.0});
    // B: a divisible task with a 2 MB item held by owner_b and replica_b.
    // Its fetch outlives owner_b (dead at t = 1), so it is orphaned mid-run
    // and must come back through DTA re-division.
    tasks.push_back({task(issuer_b, 0, 50e3, 2e6, owner_b, 30.0), 0.0});
    // C1/C2: compute-heavy tasks in the dark cell (down until t = 3): with
    // no station to offload to they run on their issuer, ~23 s against a
    // 30 s deadline.
    mec::Task heavy = task(issuer_c, 0, 1e6, 0.0, issuer_c, 30.0);
    heavy.cycles_per_byte = 33000.0;
    tasks.push_back({heavy, 0.0});
    heavy.id.index = 1;
    tasks.push_back({heavy, 0.0});
    // D: its issuer is gone for good; nobody can win this one.
    tasks.push_back({task(dead_issuer, 0, 200e3, 0.0, dead_issuer, 20.0), 0.0});

    faults = FaultSchedule({
        {0.0, FaultKind::kDeviceFail, owner_a, 1.0},
        {2.0, FaultKind::kDeviceRecover, owner_a, 1.0},
        {1.0, FaultKind::kDeviceFail, owner_b, 1.0},
        {0.0, FaultKind::kDeviceFail, dead_issuer, 1.0},
        {0.0, FaultKind::kStationFail, 1, 1.0},
        {3.0, FaultKind::kStationRecover, 1, 1.0},
    });

    shared.item_bytes = {2e6};
    shared.ownership.assign(topo.num_devices(), {});
    shared.ownership[owner_b] = {0};
    shared.ownership[replica_b] = {0};
    shared.task_items.assign(tasks.size(), {});
    shared.task_items[2] = {0};  // task B
  }
};

TEST(ResilientControllerTest, BeatsOneShotReplayUnderChurn) {
  Drill drill;
  ASSERT_GE(drill.faults.device_failures(), 3u);
  ASSERT_GE(drill.faults.station_failures(), 1u);

  const FaultRun r = run_faults(fault_options(6), drill.scenario,
                                drill.faults, &drill.shared);

  // The one-shot clairvoyant plan, replayed through the same schedule.
  std::vector<mec::Task> flat;
  for (const workload::TimedTask& tt : drill.scenario.tasks) {
    flat.push_back(tt.task);
  }
  const assign::HtaInstance inst(drill.scenario.topology, flat);
  const assign::Assignment plan = assign::LpHta().assign(inst);
  sim::SimOptions sim_opts;
  sim_opts.faults = drill.faults;
  const sim::SimResult replay = sim::simulate(inst, plan, sim_opts);
  std::size_t replay_unsat = 0;
  for (std::size_t t = 0; t < flat.size(); ++t) {
    const sim::TaskTimeline& tl = replay.timelines[t];
    if (!tl.placed || tl.failed ||
        tl.latency_s() > flat[t].deadline_s + 1e-9) {
      ++replay_unsat;
    }
  }

  EXPECT_LT(r.unsatisfied(), replay_unsat);  // the acceptance inequality
  EXPECT_GE(r.result.orphaned, 1u);
  EXPECT_GE(r.result.rescued, 1u);  // B came back via re-division
  EXPECT_GE(r.result.retries, 1u);

  // Per-task fates: only the dead-issuer task is unsatisfiable.
  EXPECT_EQ(r.outcomes[0].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[1].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[2].fate, DecisionKind::kRescue);
  EXPECT_EQ(r.outcomes[3].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[4].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[5].fate, DecisionKind::kLostIssuer);
  EXPECT_EQ(r.unsatisfied(), 1u);
  EXPECT_EQ(r.result.completed, 5u);

  // The A tasks waited for the recovery: they start at t = 2, on their
  // third admission.
  EXPECT_DOUBLE_EQ(r.outcomes[0].start_s, 2.0);
  EXPECT_EQ(r.outcomes[0].attempts, 3u);
  // B was orphaned at t = 1 and re-divided at the next boundary.
  EXPECT_DOUBLE_EQ(r.outcomes[2].start_s, 1.5);
  EXPECT_EQ(r.outcomes[2].attempts, 2u);
  // The dark-cell tasks ran locally at the first boundary.
  for (const std::size_t c : {3, 4}) {
    EXPECT_EQ(r.outcomes[c].decision, Decision::kLocal);
    EXPECT_DOUBLE_EQ(r.outcomes[c].start_s, 0.5);
  }
}

TEST(ResilientControllerTest, ForcedSolverErrorIsAbsorbedByTheChain) {
  workload::ScenarioConfig cfg;
  cfg.seed = 22;
  cfg.num_tasks = 40;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  workload::Scenario s = workload::make_scenario(cfg);
  workload::TimedScenario timed{std::move(s.topology), {}};
  for (const mec::Task& t : s.tasks) timed.tasks.push_back({t, 0.0});

  ServeOptions opts = fault_options();
  opts.lp.max_lp_iterations = 1;  // rung 0 throws SolverError every epoch
  FaultRun r;
  ASSERT_NO_THROW(r = run_faults(opts, timed, FaultSchedule{}));
  EXPECT_EQ(r.result.rungs.at(FallbackRung::kLpHta), 0u);
  EXPECT_GT(r.result.rungs.at(FallbackRung::kHgos), 0u);
  EXPECT_GT(r.result.completed, 0u);
}

TEST(ResilientControllerTest, QuietScheduleCompletesEasyTasks) {
  workload::TimedScenario s{topology(23), {}};
  for (std::size_t i = 0; i < 4; ++i) {
    s.tasks.push_back({task(i, 0, 200e3, 0.0, i, 20.0), 0.1 * double(i)});
  }
  const FaultRun r = run_faults(fault_options(), s, FaultSchedule{});
  EXPECT_EQ(r.result.completed, s.tasks.size());
  EXPECT_EQ(r.unsatisfied(), 0u);
  EXPECT_EQ(r.result.retries, 0u);
  EXPECT_EQ(r.result.orphaned, 0u);
  for (const TaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kDecide);
    EXPECT_NE(o.decision, Decision::kCancelled);
    EXPECT_EQ(o.attempts, 1u);
  }
}

TEST(ResilientControllerTest, RetriesExhaustWhenTheOwnerNeverReturns) {
  workload::TimedScenario s{topology(24), {}};
  // No shared view: the dead owner's data cannot be re-divided.
  s.tasks.push_back({task(1, 0, 100e3, 400e3, 2, 1e6), 0.0});
  const FaultSchedule faults({{0.0, FaultKind::kDeviceFail, 2, 1.0}});
  const FaultRun r = run_faults(fault_options(3), s, faults);
  EXPECT_EQ(r.unsatisfied(), 1u);
  EXPECT_EQ(r.outcomes[0].fate, DecisionKind::kExhausted);
  EXPECT_EQ(r.outcomes[0].attempts, 3u);
  EXPECT_EQ(r.result.retries, 2u);
}

TEST(ResilientControllerTest, ValidatesItsInputs) {
  workload::TimedScenario s{topology(25), {}};
  s.tasks.push_back({task(0, 0, 1e3, 0.0, 0, 5.0), 0.0});
  ServeOptions opts = fault_options();
  opts.batching.window_s = 0.0;
  EXPECT_THROW(run_faults(opts, s, FaultSchedule{}), ModelError);
  EXPECT_THROW(run_faults(fault_options(0), s, FaultSchedule{}), ModelError);
  // Fault targets are validated against the topology.
  const FaultSchedule bad({{0.0, FaultKind::kDeviceFail, 99, 1.0}});
  EXPECT_THROW(run_faults(fault_options(), s, bad), ModelError);
  // A misaligned shared view is rejected.
  SharedDataView shared;
  shared.task_items.resize(2);
  shared.ownership.resize(s.topology.num_devices());
  EXPECT_THROW(run_faults(fault_options(), s, FaultSchedule{}, &shared),
               ModelError);
}

TEST(ServeFaultTest, DarkCellRunsLightTasksLocally) {
  // A light task whose cell is down runs on its issuer right away, priced
  // exactly as the cost model prices local execution.
  workload::TimedScenario s{topology(), {}};
  const std::size_t issuer = s.topology.cluster(1)[0];
  s.tasks.push_back({task(issuer, 0, 50e3, 0.0, issuer, 20.0), 0.0});
  const FaultSchedule faults({{0.0, FaultKind::kStationFail, 1, 1.0}});
  const FaultRun r = run_faults(fault_options(), s, faults);
  ASSERT_EQ(r.outcomes[0].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[0].decision, Decision::kLocal);
  EXPECT_DOUBLE_EQ(r.outcomes[0].start_s, 0.5);
  const mec::CostEntry local = mec::CostModel(s.topology).evaluate(
      s.tasks[0].task, mec::Placement::kLocal);
  EXPECT_DOUBLE_EQ(r.outcomes[0].finish_s, 0.5 + local.latency_s());
  EXPECT_DOUBLE_EQ(r.result.total_energy_j, local.energy_j);
}

TEST(ServeFaultTest, DarkCellParksTasksWhoseFetchLeavesTheCell) {
  // The external data sits in the other cell: with this cell dark the
  // fetch has no route, so the task waits for the station.
  workload::TimedScenario s{topology(), {}};
  const std::size_t issuer = s.topology.cluster(1)[0];
  const std::size_t owner = s.topology.cluster(0)[0];
  s.tasks.push_back({task(issuer, 0, 50e3, 50e3, owner, 20.0), 0.0});
  const FaultSchedule faults({{0.0, FaultKind::kStationFail, 1, 1.0},
                              {2.0, FaultKind::kStationRecover, 1, 1.0}});
  const FaultRun r = run_faults(fault_options(), s, faults);
  ASSERT_EQ(r.outcomes[0].fate, DecisionKind::kDecide);
  EXPECT_GE(r.outcomes[0].start_s, 2.0);
  EXPECT_GE(r.result.retries, 1u);
}

TEST(ServeFaultTest, DarkCellChargesOnlyTheIssuersOwnLocalRuns) {
  // Cell 1 stays dark. Every device runs long local work, each filling
  // its own capacity except issuer x, whose long run holds half of its
  // capacity. Two light tasks of x then meet the dark-cell fit check in
  // one batch: the first fits beside x's own run — the other devices'
  // work is not x's to carry — and the second no longer fits once the
  // first has started, so it waits.
  workload::TimedScenario s{topology(), {}};
  const std::size_t x = s.topology.cluster(1)[0];
  const double cap = s.topology.device(x).max_resource;
  for (std::size_t dev = 0; dev < s.topology.num_devices(); ++dev) {
    mec::Task heavy = task(dev, 0, 1e6, 0.0, dev, 60.0);
    heavy.cycles_per_byte = 33000.0;
    heavy.resource =
        dev == x ? 0.5 * cap : s.topology.device(dev).max_resource;
    s.tasks.push_back({heavy, 0.0});
  }
  mec::Task light = task(x, 1, 50e3, 0.0, x, 20.0);
  light.resource = 0.4 * cap;
  s.tasks.push_back({light, 0.7});
  light.id.index = 2;
  light.resource = 0.2 * cap;
  s.tasks.push_back({light, 0.7});
  const FaultSchedule faults({{0.0, FaultKind::kStationFail, 1, 1.0}});
  const FaultRun r = run_faults(fault_options(), s, faults);

  const std::size_t n = s.topology.num_devices();
  ASSERT_EQ(r.outcomes[x].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[x].decision, Decision::kLocal);
  EXPECT_DOUBLE_EQ(r.outcomes[x].start_s, 0.5);
  // Long work runs on every other device of the dark cell too.
  for (const std::size_t dev : s.topology.cluster(1)) {
    ASSERT_EQ(r.outcomes[dev].fate, DecisionKind::kDecide);
    EXPECT_EQ(r.outcomes[dev].decision, Decision::kLocal);
    EXPECT_GT(r.outcomes[dev].finish_s, 2.0);
  }
  ASSERT_EQ(r.outcomes[n].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[n].decision, Decision::kLocal);
  EXPECT_DOUBLE_EQ(r.outcomes[n].start_s, 1.0);
  ASSERT_EQ(r.outcomes[n + 1].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[n + 1].decision, Decision::kLocal);
  EXPECT_GT(r.outcomes[n + 1].start_s, 1.0);
  EXPECT_GE(r.outcomes[n + 1].attempts, 2u);
}

TEST(ServeFaultTest, LinkFadeRepricesTheRadio) {
  // A compute-heavy task offloads; with its issuer's link faded to a
  // quarter, the placement is priced on the faded radio.
  workload::TimedScenario s{topology(), {}};
  const std::size_t issuer = s.topology.cluster(0)[0];
  mec::Task heavy = task(issuer, 0, 1e6, 0.0, issuer, 30.0);
  heavy.cycles_per_byte = 33000.0;
  s.tasks.push_back({heavy, 0.0});
  const FaultSchedule faults({{0.0, FaultKind::kLinkDegrade, issuer, 0.25}});
  const FaultRun faded = run_faults(fault_options(), s, faults);
  const FaultRun nominal = run_faults(fault_options(), s, FaultSchedule{});
  ASSERT_EQ(faded.outcomes[0].fate, DecisionKind::kDecide);
  const Decision d = faded.outcomes[0].decision;
  ASSERT_NE(d, Decision::kLocal);

  std::vector<mec::Device> devices;
  for (std::size_t i = 0; i < s.topology.num_devices(); ++i) {
    devices.push_back(s.topology.device(i));
  }
  devices[issuer].radio.upload_bps *= 0.25;
  devices[issuer].radio.download_bps *= 0.25;
  std::vector<mec::BaseStation> stations;
  for (std::size_t b = 0; b < s.topology.num_base_stations(); ++b) {
    stations.push_back(s.topology.base_station(b));
  }
  const mec::Topology faded_topo(std::move(devices), std::move(stations),
                                 s.topology.params());
  const mec::CostEntry expected = mec::CostModel(faded_topo).evaluate(
      heavy, assign::to_placement(d));
  EXPECT_DOUBLE_EQ(faded.result.total_energy_j, expected.energy_j);
  EXPECT_DOUBLE_EQ(faded.outcomes[0].finish_s, 0.5 + expected.latency_s());
  EXPECT_GT(faded.outcomes[0].finish_s, nominal.outcomes[0].finish_s);
}

// --- epoch decision budget ------------------------------------------------

std::vector<workload::TimedTask> light_tasks(const mec::Topology& topo,
                                             double deadline_s) {
  std::vector<workload::TimedTask> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    mec::Task t;
    t.id = {topo.cluster(0)[i % topo.cluster(0).size()], i};
    t.local_bytes = 50e3;
    t.external_bytes = 0.0;
    t.deadline_s = deadline_s;
    tasks.push_back({t, 0.0});
  }
  return tasks;
}

workload::TimedScenario light_scenario() {
  workload::TimedScenario s{topology(), {}};
  s.tasks = light_tasks(s.topology, 10.0);
  return s;
}

TEST(ResilientBudgetTest, RejectsBadDecisionBudgets) {
  ServeOptions opts = fault_options();
  opts.epoch_budget_ms = -1.0;
  const workload::TimedScenario s = light_scenario();
  EXPECT_THROW(run_faults(opts, s, {}), ModelError);
  opts.epoch_budget_ms = std::nan("");
  EXPECT_THROW(run_faults(opts, s, {}), ModelError);
}

TEST(ResilientBudgetTest, GenerousBudgetStillCompletesEverything) {
  ServeOptions opts = fault_options();
  opts.epoch_budget_ms = 10.0;  // tiny against 10 s deadlines
  const workload::TimedScenario s = light_scenario();
  const FaultRun r = run_faults(opts, s, {});
  EXPECT_EQ(r.result.completed, s.tasks.size());
  for (const TaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kDecide);
  }
}

TEST(ResilientBudgetTest, BudgetConsumingAllSlackExpiresTasksAtTriage) {
  // At the first epoch boundary (t = 0.5) a 10 s deadline has 9.5 s of
  // residual slack; a 9.8 s decision budget eats past it, so the residual
  // goes negative and every task must expire at triage — deterministically,
  // because the *configured* budget is charged, not measured wall time.
  ServeOptions opts = fault_options();
  opts.epoch_budget_ms = 9800.0;
  const FaultRun r = run_faults(opts, light_scenario(), {});
  EXPECT_EQ(r.result.completed, 0u);
  for (const TaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kExpire);
  }
}

TEST(ResilientBudgetTest, ZeroResidualBoundaryExpiresInsteadOfUnderflowing) {
  // Deadline == epoch + budget exactly: the residual at triage is 0, which
  // must count as expired (a zero-second task cannot run), not wrap into a
  // bogus negative-deadline LP.
  ServeOptions opts = fault_options();
  opts.epoch_budget_ms = 9500.0;  // 0.5 + 9.5 == the 10 s deadline
  const FaultRun r = run_faults(opts, light_scenario(), {});
  for (const TaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kExpire);
  }
}

// --- pinned fates of the churn ablation's recipe --------------------------

// abl_churn's cell: 120 Poisson tasks on 50 devices / 5 stations, device
// MTBF `mtbf_s` with correlated cell outages and link fading, and a shared
// view holding each external item on its owner plus one replica.
FaultRun churn_cell(double mtbf_s, std::uint64_t rep, double budget_ms) {
  workload::ArrivalConfig arrivals;
  arrivals.scenario.num_tasks = 120;
  arrivals.scenario.num_devices = 50;
  arrivals.scenario.num_base_stations = 5;
  arrivals.scenario.seed = rep * 977 + static_cast<std::uint64_t>(mtbf_s);
  const workload::TimedScenario s = workload::make_timed_scenario(arrivals);

  workload::FaultModelConfig fm;
  fm.horizon_s = 60.0;
  fm.device_mtbf_s = mtbf_s;
  fm.device_mttr_s = 3.0;
  fm.station_outage_rate_per_s = 0.01;
  fm.station_outage_duration_s = 4.0;
  fm.correlated_device_prob = 0.5;
  fm.link_fade_rate_per_s = 0.05;
  fm.seed = arrivals.scenario.seed + 1;
  const FaultSchedule faults = workload::make_fault_schedule(fm, s.topology);

  SharedDataView shared;
  shared.ownership.resize(s.topology.num_devices());
  shared.task_items.resize(s.tasks.size());
  for (std::size_t t = 0; t < s.tasks.size(); ++t) {
    const mec::Task& tk = s.tasks[t].task;
    if (tk.external_bytes <= 0.0) continue;
    const std::size_t item = shared.item_bytes.size();
    shared.item_bytes.push_back(tk.external_bytes);
    const std::size_t replica =
        (tk.external_owner + 7) % s.topology.num_devices();
    shared.ownership[tk.external_owner].push_back(item);
    if (replica != tk.external_owner) shared.ownership[replica].push_back(item);
    shared.task_items[t].push_back(item);
  }
  ServeOptions opts = fault_options(4);
  opts.epoch_budget_ms = budget_ms;
  return run_faults(opts, s, faults, &shared);
}

// Per-task fates (fate, decision, start, finish, attempts) as the
// dedicated fault-tolerant controller produced them before it was folded
// into the daemon, with its completion, rescue and retry tallies.
struct PinnedCell {
  double mtbf_s;
  std::uint64_t rep;
  std::size_t completed, rescued, retries, epochs;
  std::uint64_t digest;
};

TEST(ResilientControllerTest, ChurnRecipeMatchesPinnedFates) {
  const PinnedCell cells[] = {
      {5.0, 1, 63, 17, 33, 16, 0x9d3cdf2112d0832eull},
      {5.0, 2, 60, 18, 21, 16, 0xf49e4479fa34f3f8ull},
      {5.0, 3, 55, 21, 40, 16, 0x6ae5b055a1936412ull},
      {20.0, 1, 97, 7, 18, 16, 0xce1476a312dec8b4ull},
      {20.0, 2, 92, 11, 23, 13, 0x46a07b31f6b9278aull},
      {20.0, 3, 105, 8, 15, 14, 0x4c3c6b0b199898d6ull},
  };
  for (const PinnedCell& c : cells) {
    const FaultRun r = churn_cell(c.mtbf_s, c.rep, 0.0);
    const std::string at = "mtbf " + std::to_string(c.mtbf_s) + " rep " +
                           std::to_string(c.rep);
    EXPECT_EQ(r.result.completed, c.completed) << at;
    EXPECT_EQ(r.result.rescued, c.rescued) << at;
    EXPECT_EQ(r.result.retries, c.retries) << at;
    EXPECT_EQ(r.result.decide_epochs, c.epochs) << at;
    EXPECT_EQ(fate_digest(r.outcomes, /*online=*/false), c.digest) << at;
  }
}

TEST(ResilientBudgetTest, BudgetedChurnMatchesPinnedFates) {
  // A 400 ms epoch budget is charged against every residual deadline; the
  // LP itself finishes far inside it, so the fates stay deterministic.
  const FaultRun r = churn_cell(10.0, 1, 400.0);
  EXPECT_EQ(r.result.completed, 55u);
  EXPECT_EQ(r.result.expired, 41u);
  EXPECT_EQ(fate_digest(r.outcomes, /*online=*/false), 0x7b05e0f60aa59ebeull);
}

}  // namespace
}  // namespace mecsched::serve
