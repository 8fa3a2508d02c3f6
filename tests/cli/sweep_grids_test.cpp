// Pins the Sec. V HTA figure grids: the one definition that both
// `mecsched sweep` and the bench/fig* binaries run through run_grid().
#include "cli/sweep_grids.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace mecsched::cli {
namespace {

const SweepGrid& grid(const std::string& name) {
  const SweepGrid* g = find_sweep_grid(name);
  EXPECT_NE(g, nullptr) << name;
  return *g;
}

const std::vector<double> kTaskAxis = {100, 150, 200, 250,
                                       300, 350, 400, 450};
const std::vector<double> kInputAxis = {1000, 2000, 3000, 4000, 5000};

// A Metrics whose three figure quantities are all distinct, so a grid
// reading the wrong one is caught.
assign::Metrics probe_metrics() {
  assign::Metrics m;
  m.num_tasks = 10;
  m.cancelled = 1;
  m.deadline_violations = 2;
  m.total_energy_j = 123.0;
  m.mean_latency_s = 4.5;
  return m;
}

TEST(SweepGridsTest, TaskCountGridsSweep100To450TasksAt3000Kb) {
  for (const char* name : {"fig2a", "fig3", "fig4a"}) {
    const SweepGrid& g = grid(name);
    EXPECT_EQ(g.x_label, "tasks") << name;
    EXPECT_EQ(g.xs, kTaskAxis) << name;
    for (const double x : g.xs) {
      for (std::uint64_t rep = 1; rep <= 3; ++rep) {
        const workload::ScenarioConfig cfg = g.config_at(x, rep);
        EXPECT_EQ(cfg.num_devices, 50u) << name;
        EXPECT_EQ(cfg.num_base_stations, 5u) << name;
        EXPECT_EQ(cfg.num_tasks, static_cast<std::size_t>(x)) << name;
        EXPECT_EQ(cfg.max_input_kb, 3000.0) << name;
        EXPECT_EQ(cfg.seed, rep * 1000 + static_cast<std::uint64_t>(x))
            << name;
      }
    }
  }
}

TEST(SweepGridsTest, InputSizeGridsSweep1000To5000KbAt100Tasks) {
  for (const char* name : {"fig2b", "fig4b"}) {
    const SweepGrid& g = grid(name);
    EXPECT_EQ(g.x_label, "max input (kB)") << name;
    EXPECT_EQ(g.xs, kInputAxis) << name;
    for (const double x : g.xs) {
      for (std::uint64_t rep = 1; rep <= 3; ++rep) {
        const workload::ScenarioConfig cfg = g.config_at(x, rep);
        EXPECT_EQ(cfg.num_devices, 50u) << name;
        EXPECT_EQ(cfg.num_base_stations, 5u) << name;
        EXPECT_EQ(cfg.num_tasks, 100u) << name;
        EXPECT_EQ(cfg.max_input_kb, x) << name;
        EXPECT_EQ(cfg.seed, rep * 1000 + static_cast<std::uint64_t>(x))
            << name;
      }
    }
  }
}

TEST(SweepGridsTest, EachFigureReadsItsMetric) {
  const assign::Metrics m = probe_metrics();
  EXPECT_EQ(grid("fig2a").metric(m), 123.0);
  EXPECT_EQ(grid("fig2b").metric(m), 123.0);
  EXPECT_EQ(grid("fig3").metric(m), 0.3);
  EXPECT_EQ(grid("fig4a").metric(m), 4.5);
  EXPECT_EQ(grid("fig4b").metric(m), 4.5);
}

TEST(SweepGridsTest, RunGridIsIdenticalAtEveryJobCount) {
  const SweepGrid& smoke = grid("smoke");
  const auto csv_at = [&](std::size_t jobs) {
    exec::SweepOptions options;
    options.jobs = jobs;
    std::ostringstream os;
    run_grid(smoke, 2, options).write_csv(os);
    return os.str();
  };
  const std::string serial = csv_at(1);
  EXPECT_NE(serial.find("tasks,LP-HTA,HGOS,AllToC,AllOffload"),
            std::string::npos);
  EXPECT_EQ(csv_at(4), serial);
}

TEST(SweepGridsTest, RunGridAveragesEveryRepetitionOfEveryX) {
  const SweepGrid& smoke = grid("smoke");
  const metrics::SeriesCollector series = run_grid(smoke, 2);
  EXPECT_EQ(series.xs(), smoke.xs);
  for (const double x : smoke.xs) {
    for (const std::string& name : series.series_names()) {
      EXPECT_EQ(series.count(x, name), 2u) << name << " at " << x;
    }
  }
}

}  // namespace
}  // namespace mecsched::cli
