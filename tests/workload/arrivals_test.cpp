#include "workload/arrivals.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mecsched::workload {
namespace {

TimedScenario timed(std::uint64_t seed, std::size_t tasks = 50,
                    double rate = 25.0) {
  ArrivalConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.num_tasks = tasks;
  cfg.scenario.num_devices = 15;
  cfg.scenario.num_base_stations = 3;
  cfg.arrival_rate_per_s = rate;
  return make_timed_scenario(cfg);
}

TEST(ArrivalsTest, ReleaseTimesAreSortedAndPositive) {
  const auto s = timed(8, 100);
  double prev = 0.0;
  for (const auto& t : s.tasks) {
    EXPECT_GE(t.release_s, prev);
    prev = t.release_s;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(ArrivalsTest, StaticAttributesMatchQuasiStaticScenario) {
  ArrivalConfig cfg;
  cfg.scenario.seed = 12;
  cfg.scenario.num_tasks = 30;
  const auto timed_scenario = make_timed_scenario(cfg);
  const auto static_scenario = make_scenario(cfg.scenario);
  ASSERT_EQ(timed_scenario.tasks.size(), static_scenario.tasks.size());
  for (std::size_t i = 0; i < static_scenario.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(timed_scenario.tasks[i].task.local_bytes,
                     static_scenario.tasks[i].local_bytes);
    EXPECT_DOUBLE_EQ(timed_scenario.tasks[i].task.deadline_s,
                     static_scenario.tasks[i].deadline_s);
  }
}

TEST(ArrivalsTest, RateControlsDensity) {
  const auto slow = timed(9, 50, 5.0);
  const auto fast = timed(9, 50, 50.0);
  EXPECT_GT(slow.tasks.back().release_s, fast.tasks.back().release_s);
}

TEST(ServeTraceConversionTest, TasksAndFaultsBecomeOneTrace) {
  const auto s = timed(10, 5);
  const std::size_t d = 3;
  const std::size_t home = s.topology.device(d).base_station;
  const sim::FaultSchedule faults({
      {0.1, sim::FaultKind::kDeviceFail, d, 1.0},
      {0.2, sim::FaultKind::kDeviceRecover, d, 1.0},
      {0.3, sim::FaultKind::kStationFail, 1, 1.0},
      {0.4, sim::FaultKind::kStationRecover, 1, 1.0},
      {0.5, sim::FaultKind::kLinkDegrade, d, 0.5},
      {0.6, sim::FaultKind::kLinkRestore, d, 1.0},
  });
  const serve::Trace trace = to_serve_trace(s, faults);
  EXPECT_EQ(trace.arrivals(), s.tasks.size());
  EXPECT_EQ(trace.churn_events(), faults.size());
  // Arrival i of the trace is task i.
  std::size_t k = 0;
  std::vector<serve::Event> churn;
  for (const serve::Event& e : trace.events()) {
    if (e.kind != serve::EventKind::kTaskArrival) {
      churn.push_back(e);
      continue;
    }
    EXPECT_EQ(e.task.id, s.tasks[k].task.id);
    EXPECT_DOUBLE_EQ(e.time_s, s.tasks[k].release_s);
    ++k;
  }
  ASSERT_EQ(churn.size(), 6u);
  EXPECT_EQ(churn[0].kind, serve::EventKind::kDeviceLeave);
  EXPECT_EQ(churn[0].device, d);
  EXPECT_EQ(churn[1].kind, serve::EventKind::kDeviceJoin);
  EXPECT_EQ(churn[1].station, home);  // recovery rejoins at home
  EXPECT_EQ(churn[2].kind, serve::EventKind::kStationFail);
  EXPECT_EQ(churn[2].station, 1u);
  EXPECT_EQ(churn[3].kind, serve::EventKind::kStationRecover);
  EXPECT_EQ(churn[4].kind, serve::EventKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(churn[4].factor, 0.5);
  EXPECT_EQ(churn[5].kind, serve::EventKind::kLinkRestore);
  EXPECT_NO_THROW(trace.validate_against(s.topology.num_devices(),
                                         s.topology.num_base_stations()));
}

TEST(ServeTraceConversionTest, RejectsUnsortedTasksAndForeignTargets) {
  auto s = timed(11, 5);
  EXPECT_THROW(
      to_serve_trace(s, sim::FaultSchedule({{0.0, sim::FaultKind::kStationFail,
                                             99, 1.0}})),
      ModelError);
  std::swap(s.tasks[0], s.tasks[1]);
  EXPECT_THROW(to_serve_trace(s), ModelError);
}

}  // namespace
}  // namespace mecsched::workload
