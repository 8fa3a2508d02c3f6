#include <gtest/gtest.h>

#include "io/codec.h"
#include "serve/daemon.h"
#include "workload/arrivals.h"

namespace mecsched::io {
namespace {

workload::TimedScenario sample() {
  workload::ArrivalConfig cfg;
  cfg.scenario.seed = 91;
  cfg.scenario.num_tasks = 18;
  cfg.scenario.num_devices = 6;
  cfg.scenario.num_base_stations = 2;
  cfg.arrival_rate_per_s = 10.0;
  return workload::make_timed_scenario(cfg);
}

TEST(TimedCodecTest, RoundTripPreservesReleasesAndTasks) {
  const auto s = sample();
  const auto restored =
      timed_scenario_from_json(timed_scenario_to_json(s));
  ASSERT_EQ(restored.tasks.size(), s.tasks.size());
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(restored.tasks[i].release_s, s.tasks[i].release_s);
    EXPECT_DOUBLE_EQ(restored.tasks[i].task.local_bytes,
                     s.tasks[i].task.local_bytes);
    EXPECT_DOUBLE_EQ(restored.tasks[i].task.deadline_s,
                     s.tasks[i].task.deadline_s);
  }
}

TEST(TimedCodecTest, RoundTripPreservesOnlineScheduling) {
  const auto s = sample();
  const auto restored = timed_scenario_from_json(timed_scenario_to_json(s));
  serve::ServeOptions opts;
  opts.readmission.max_attempts = 1;
  const serve::ServeDaemon daemon(opts);
  serve::DecisionLog a, b;
  const serve::ServeResult ra =
      daemon.run(s.topology, workload::to_serve_trace(s), &a);
  const serve::ServeResult rb =
      daemon.run(restored.topology, workload::to_serve_trace(restored), &b);
  EXPECT_EQ(ra.decisions, rb.decisions);
  EXPECT_DOUBLE_EQ(ra.total_energy_j, rb.total_energy_j);
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace mecsched::io
