// FaultSchedule unit tests plus its integration with the discrete-event
// simulator: recovery re-enables hardware, station outages black out a
// cluster's offload path, link degradation stretches radio stages, and the
// legacy single-failure SimOptions fields keep their historical meaning.
#include <gtest/gtest.h>

#include "common/error.h"

#include "assign/lp_hta.h"
#include "sim/fault_schedule.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace mecsched::sim {
namespace {

using assign::Assignment;
using assign::Decision;
using assign::HtaInstance;

workload::Scenario scenario(std::uint64_t seed, std::size_t tasks = 20) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  return workload::make_scenario(cfg);
}

TEST(FaultScheduleTest, StateQueriesReplayThePrefix) {
  const FaultSchedule s({
      {1.0, FaultKind::kDeviceFail, 3, 1.0},
      {2.0, FaultKind::kDeviceRecover, 3, 1.0},
      {1.5, FaultKind::kStationFail, 0, 1.0},
      {4.0, FaultKind::kLinkDegrade, 5, 0.5},
      {6.0, FaultKind::kLinkRestore, 5, 1.0},
  });
  EXPECT_TRUE(s.device_up(3, 0.99));
  EXPECT_FALSE(s.device_up(3, 1.0));  // an event at t is visible at t
  EXPECT_FALSE(s.device_up(3, 1.99));
  EXPECT_TRUE(s.device_up(3, 2.0));
  EXPECT_TRUE(s.device_up(0, 100.0));  // untouched device

  EXPECT_TRUE(s.station_up(0, 1.49));
  EXPECT_FALSE(s.station_up(0, 1.5));
  EXPECT_FALSE(s.station_up(0, 100.0));  // never recovers
  EXPECT_TRUE(s.station_up(1, 100.0));

  EXPECT_DOUBLE_EQ(s.link_factor(5, 3.9), 1.0);
  EXPECT_DOUBLE_EQ(s.link_factor(5, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(s.link_factor(5, 6.0), 1.0);
}

TEST(FaultScheduleTest, EventsAreSortedAndCounted) {
  const FaultSchedule s({
      {5.0, FaultKind::kDeviceFail, 1, 1.0},
      {1.0, FaultKind::kStationFail, 0, 1.0},
      {3.0, FaultKind::kDeviceFail, 2, 1.0},
  });
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.events()[0].time_s, 1.0);
  EXPECT_DOUBLE_EQ(s.events()[1].time_s, 3.0);
  EXPECT_DOUBLE_EQ(s.events()[2].time_s, 5.0);
  EXPECT_EQ(s.device_failures(), 2u);
  EXPECT_EQ(s.station_failures(), 1u);
}

TEST(FaultScheduleTest, ValidatesEventsAndTargets) {
  EXPECT_THROW(FaultSchedule({{-1.0, FaultKind::kDeviceFail, 0, 1.0}}),
               ModelError);
  EXPECT_THROW(FaultSchedule({{0.0, FaultKind::kLinkDegrade, 0, 0.0}}),
               ModelError);
  EXPECT_THROW(FaultSchedule({{0.0, FaultKind::kLinkDegrade, 0, 1.5}}),
               ModelError);

  const FaultSchedule device_oob({{0.0, FaultKind::kDeviceFail, 9, 1.0}});
  EXPECT_NO_THROW(device_oob.validate_against(10, 1));
  EXPECT_THROW(device_oob.validate_against(9, 1), ModelError);
  const FaultSchedule station_oob({{0.0, FaultKind::kStationFail, 2, 1.0}});
  EXPECT_THROW(station_oob.validate_against(10, 2), ModelError);
}

TEST(FaultScheduleTest, MergeAndSingleFailure) {
  const FaultSchedule a = FaultSchedule::single_device_failure(4, 2.0);
  const FaultSchedule b({{1.0, FaultKind::kStationFail, 0, 1.0}});
  const FaultSchedule m = a.merged_with(b);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.events()[0].time_s, 1.0);
  EXPECT_FALSE(m.device_up(4, 2.0));
  EXPECT_FALSE(m.station_up(0, 1.0));
}

TEST(FaultSimTest, RecoveryReenablesTheDevice) {
  const auto s = scenario(11);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_local;
  all_local.decisions.assign(inst.num_tasks(), Decision::kLocal);

  // Down during [0, 5); every task is released at t=10, after recovery.
  SimOptions opts;
  opts.faults = FaultSchedule({
      {0.0, FaultKind::kDeviceFail, 0, 1.0},
      {5.0, FaultKind::kDeviceRecover, 0, 1.0},
  });
  opts.release_times.assign(inst.num_tasks(), 10.0);
  const SimResult r = simulate(inst, all_local, opts);
  EXPECT_EQ(r.failed_tasks, 0u);

  // Without the recovery the device's tasks die.
  SimOptions forever;
  forever.faults = FaultSchedule({{0.0, FaultKind::kDeviceFail, 0, 1.0}});
  forever.release_times.assign(inst.num_tasks(), 10.0);
  const SimResult broken = simulate(inst, all_local, forever);
  std::size_t touches_dev0 = 0;
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    if (inst.task(t).id.user == 0 ||
        (inst.task(t).external_bytes > 0.0 &&
         inst.task(t).external_owner == 0)) {
      ++touches_dev0;
    }
  }
  EXPECT_EQ(broken.failed_tasks, touches_dev0);
}

TEST(FaultSimTest, StationOutageKillsItsClustersOffload) {
  const auto s = scenario(12);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_edge;
  all_edge.decisions.assign(inst.num_tasks(), Decision::kEdge);

  SimOptions opts;
  opts.faults = FaultSchedule({{0.0, FaultKind::kStationFail, 0, 1.0}});
  const SimResult r = simulate(inst, all_edge, opts);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    const mec::Task& task = inst.task(t);
    const bool via_station0 =
        s.topology.device(task.id.user).base_station == 0 ||
        (task.external_bytes > 0.0 &&
         s.topology.device(task.external_owner).base_station == 0);
    if (!via_station0) {
      EXPECT_FALSE(r.timelines[t].failed) << "task " << t;
    }
    if (s.topology.device(task.id.user).base_station == 0) {
      EXPECT_TRUE(r.timelines[t].failed) << "task " << t;
    }
  }
}

TEST(FaultSimTest, LinkDegradationStretchesRadioStages) {
  const auto s = scenario(13, 8);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_cloud;
  all_cloud.decisions.assign(inst.num_tasks(), Decision::kCloud);
  const SimResult clean = simulate(inst, all_cloud);

  SimOptions opts;
  std::vector<FaultEvent> degrade;
  for (std::size_t d = 0; d < s.topology.num_devices(); ++d) {
    degrade.push_back({0.0, FaultKind::kLinkDegrade, d, 0.5});
  }
  opts.faults = FaultSchedule(degrade);
  const SimResult r = simulate(inst, all_cloud, opts);
  EXPECT_EQ(r.failed_tasks, 0u);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    // Cloud placements always carry radio stages (the issuer uploads its α
    // and downloads the result), so a halved link must strictly hurt.
    EXPECT_GT(r.timelines[t].latency_s(),
              clean.timelines[t].latency_s() * (1.0 + 1e-9))
        << "task " << t;
    EXPECT_GT(r.timelines[t].energy_j, clean.timelines[t].energy_j)
        << "task " << t;
  }

  // Restored before release: costs match the clean run exactly.
  SimOptions restored;
  std::vector<FaultEvent> cycle = degrade;
  for (std::size_t d = 0; d < s.topology.num_devices(); ++d) {
    cycle.push_back({1.0, FaultKind::kLinkRestore, d, 1.0});
  }
  restored.faults = FaultSchedule(cycle);
  restored.release_times.assign(inst.num_tasks(), 2.0);
  const SimResult after = simulate(inst, all_cloud, restored);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    EXPECT_NEAR(after.timelines[t].latency_s(), clean.timelines[t].latency_s(),
                1e-9 * (1.0 + clean.timelines[t].latency_s()));
  }
}

TEST(FaultSimTest, LegacyFieldsMergeIntoTheSchedule) {
  const auto s = scenario(14);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_local;
  all_local.decisions.assign(inst.num_tasks(), Decision::kLocal);

  SimOptions legacy;
  legacy.failed_device = 2;
  legacy.failure_time_s = 0.0;

  SimOptions modern;
  modern.faults = FaultSchedule::single_device_failure(2, 0.0);

  const SimResult a = simulate(inst, all_local, legacy);
  const SimResult b = simulate(inst, all_local, modern);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    EXPECT_EQ(a.timelines[t].failed, b.timelines[t].failed) << "task " << t;
  }
}

TEST(FaultSimTest, ScheduleTargetsAreValidated) {
  const auto s = scenario(15, 5);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);
  SimOptions opts;
  opts.faults = FaultSchedule({{0.0, FaultKind::kDeviceFail, 99, 1.0}});
  EXPECT_THROW(simulate(inst, plan, opts), ModelError);
}

}  // namespace
}  // namespace mecsched::sim
