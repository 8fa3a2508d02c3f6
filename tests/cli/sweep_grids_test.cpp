// Pins the Sec. V figure grids: the one definition that both `mecsched
// sweep` and the bench/fig* binaries run through run_grid().
#include "cli/sweep_grids.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "assign/baselines.h"
#include "assign/evaluator.h"
#include "assign/hgos.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "dta/pipeline.h"

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
const std::vector<std::string> kHtaSeries = {"LP-HTA", "HGOS", "AllToC",
                                             "AllOffload"};
const std::vector<std::string> kDtaSeries = {"DTA-Workload", "DTA-Number"};
const std::vector<std::string> kDtaHolisticSeries = {"LP-HTA", "DTA-Workload",
                                                     "DTA-Number"};

// The grid's own config for its first cell, shrunk so one cell runs in
// milliseconds.
workload::ScenarioConfig small_cell(const SweepGrid& g) {
  workload::ScenarioConfig cfg = g.config_at(g.xs.front(), 1);
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  cfg.num_tasks = 20;
  return cfg;
}

TEST(SweepGridsTest, TaskCountGridsSweep100To450TasksAt3000Kb) {
  for (const char* name : {"fig2a", "fig3", "fig4a", "fig5a"}) {
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

// perfbench's paper_sweep builds its Fig. 5(a) inputs from fig2a's
// config_at, so the two grids must agree on every knob at every cell,
// including repetitions far past the figures' three.
TEST(SweepGridsTest, Fig5aCellsAreFig2aCells) {
  const SweepGrid& fig2a = grid("fig2a");
  const SweepGrid& fig5a = grid("fig5a");
  ASSERT_EQ(fig5a.xs, fig2a.xs);
  for (const double x : fig2a.xs) {
    for (std::uint64_t rep = 1; rep <= 64; ++rep) {
      const workload::ScenarioConfig a = fig2a.config_at(x, rep);
      const workload::ScenarioConfig b = fig5a.config_at(x, rep);
      EXPECT_EQ(a.num_devices, b.num_devices);
      EXPECT_EQ(a.num_base_stations, b.num_base_stations);
      EXPECT_EQ(a.num_tasks, b.num_tasks);
      EXPECT_EQ(a.max_input_kb, b.max_input_kb);
      EXPECT_EQ(a.min_input_fraction, b.min_input_fraction);
      EXPECT_EQ(a.external_ratio_max, b.external_ratio_max);
      EXPECT_EQ(a.cross_cluster_prob, b.cross_cluster_prob);
      EXPECT_EQ(a.wifi_prob, b.wifi_prob);
      EXPECT_EQ(a.rate_model, b.rate_model);
      EXPECT_EQ(a.deadline_slack_min, b.deadline_slack_min);
      EXPECT_EQ(a.deadline_slack_max, b.deadline_slack_max);
      EXPECT_EQ(a.resource_max_units, b.resource_max_units);
      EXPECT_EQ(a.device_capacity_min, b.device_capacity_min);
      EXPECT_EQ(a.device_capacity_max, b.device_capacity_max);
      EXPECT_EQ(a.station_capacity_per_device, b.station_capacity_per_device);
      EXPECT_EQ(a.result_kind, b.result_kind);
      EXPECT_EQ(a.result_ratio, b.result_ratio);
      EXPECT_EQ(a.result_const_kb, b.result_const_kb);
      EXPECT_EQ(a.seed, b.seed);
    }
  }
}

TEST(SweepGridsTest, Fig5bSweepsResultModelsAt100TasksAnd3000Kb) {
  const SweepGrid& g = grid("fig5b");
  EXPECT_EQ(g.x_label, "result ratio");
  EXPECT_EQ(g.xs, (std::vector<double>{0.4, 0.2, 0.1, 0.05, 0.0}));
  for (const double ratio : g.xs) {
    for (std::uint64_t rep = 1; rep <= 3; ++rep) {
      const workload::ScenarioConfig cfg = g.config_at(ratio, rep);
      EXPECT_EQ(cfg.num_devices, 50u);
      EXPECT_EQ(cfg.num_base_stations, 5u);
      EXPECT_EQ(cfg.num_tasks, 100u);
      EXPECT_EQ(cfg.max_input_kb, 3000.0);
      if (ratio == 0.0) {
        EXPECT_EQ(cfg.result_kind, mec::ResultSizeKind::kConstant);
        EXPECT_EQ(cfg.result_const_kb, 1.0);
      } else {
        EXPECT_EQ(cfg.result_kind, mec::ResultSizeKind::kProportional);
        EXPECT_EQ(cfg.result_ratio, ratio);
      }
      EXPECT_EQ(cfg.seed,
                rep * 1000 + static_cast<std::uint64_t>(ratio * 100));
    }
  }
}

TEST(SweepGridsTest, Fig6aSweeps1200To2000KbAt200Tasks) {
  const SweepGrid& g = grid("fig6a");
  EXPECT_EQ(g.x_label, "max input (kB)");
  EXPECT_EQ(g.xs, (std::vector<double>{1200, 1400, 1600, 1800, 2000}));
  for (const double x : g.xs) {
    for (std::uint64_t rep = 1; rep <= 3; ++rep) {
      const workload::ScenarioConfig cfg = g.config_at(x, rep);
      EXPECT_EQ(cfg.num_devices, 50u);
      EXPECT_EQ(cfg.num_base_stations, 5u);
      EXPECT_EQ(cfg.num_tasks, 200u);
      EXPECT_EQ(cfg.max_input_kb, x);
      EXPECT_EQ(cfg.result_kind, mec::ResultSizeKind::kProportional);
      EXPECT_EQ(cfg.result_ratio, 0.2);
      EXPECT_EQ(cfg.seed, rep * 1000 + static_cast<std::uint64_t>(x));
    }
  }
}

TEST(SweepGridsTest, Fig6bSweeps100To900TasksAt2000Kb) {
  const SweepGrid& g = grid("fig6b");
  EXPECT_EQ(g.x_label, "tasks");
  EXPECT_EQ(g.xs, (std::vector<double>{100, 300, 500, 700, 900}));
  for (const double x : g.xs) {
    for (std::uint64_t rep = 1; rep <= 3; ++rep) {
      const workload::ScenarioConfig cfg = g.config_at(x, rep);
      EXPECT_EQ(cfg.num_devices, 50u);
      EXPECT_EQ(cfg.num_base_stations, 5u);
      EXPECT_EQ(cfg.num_tasks, static_cast<std::size_t>(x));
      EXPECT_EQ(cfg.max_input_kb, 2000.0);
      EXPECT_EQ(cfg.result_kind, mec::ResultSizeKind::kProportional);
      EXPECT_EQ(cfg.result_ratio, 0.2);
      EXPECT_EQ(cfg.seed, rep * 1000 + static_cast<std::uint64_t>(x));
    }
  }
}

TEST(SweepGridsTest, SharedConfigCopiesScaleInputResultModelAndSeed) {
  workload::ScenarioConfig cfg;
  cfg.num_devices = 17;
  cfg.num_base_stations = 3;
  cfg.num_tasks = 41;
  cfg.max_input_kb = 1234.0;
  cfg.result_kind = mec::ResultSizeKind::kConstant;
  cfg.result_ratio = 0.07;
  cfg.result_const_kb = 2.5;
  cfg.seed = 99;
  // Knobs the DTA generator has its own defaults for.
  cfg.min_input_fraction = 0.6;
  cfg.wifi_prob = 0.9;
  cfg.resource_max_units = 7.0;
  cfg.device_capacity_min = 1.0;
  cfg.device_capacity_max = 2.0;
  cfg.station_capacity_per_device = 3.0;

  const workload::SharedDataConfig s = shared_config(cfg, 7);
  EXPECT_EQ(s.num_devices, 17u);
  EXPECT_EQ(s.num_base_stations, 3u);
  EXPECT_EQ(s.num_tasks, 41u);
  EXPECT_EQ(s.max_input_kb, 1234.0);
  EXPECT_EQ(s.result_kind, mec::ResultSizeKind::kConstant);
  EXPECT_EQ(s.result_ratio, 0.07);
  EXPECT_EQ(s.result_const_kb, 2.5);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.num_items, 600u);
  EXPECT_EQ(s.max_extra_owners, 7u);

  const workload::SharedDataConfig defaults;
  EXPECT_EQ(s.item_kb, defaults.item_kb);
  EXPECT_EQ(s.item_size_spread, defaults.item_size_spread);
  EXPECT_EQ(s.min_input_fraction, defaults.min_input_fraction);
  EXPECT_EQ(s.op_kb, defaults.op_kb);
  EXPECT_EQ(s.resource_max_units, defaults.resource_max_units);
  EXPECT_EQ(s.deadline_s, defaults.deadline_s);
  EXPECT_EQ(s.wifi_prob, defaults.wifi_prob);
  EXPECT_EQ(s.device_capacity_min, defaults.device_capacity_min);
  EXPECT_EQ(s.device_capacity_max, defaults.device_capacity_max);
  EXPECT_EQ(s.station_capacity_per_device,
            defaults.station_capacity_per_device);
}

// Each HTA grid's cell is the four assigners on the cell's scenario, each
// plan scored by the figure's metric.
TEST(SweepGridsTest, EachFigureReadsItsMetric) {
  const struct {
    const char* name;
    double (*metric)(const assign::Metrics&);
  } figures[] = {
      {"fig2a", [](const assign::Metrics& m) { return m.total_energy_j; }},
      {"fig2b", [](const assign::Metrics& m) { return m.total_energy_j; }},
      {"fig3", [](const assign::Metrics& m) { return m.unsatisfied_rate(); }},
      {"fig4a", [](const assign::Metrics& m) { return m.mean_latency_s; }},
      {"fig4b", [](const assign::Metrics& m) { return m.mean_latency_s; }},
      {"smoke", [](const assign::Metrics& m) { return m.total_energy_j; }},
  };
  for (const auto& figure : figures) {
    const SweepGrid& g = grid(figure.name);
    EXPECT_EQ(g.series, kHtaSeries) << figure.name;
    const workload::ScenarioConfig cfg = small_cell(g);
    const workload::Scenario scenario = workload::make_scenario(cfg);
    const assign::HtaInstance instance(scenario.topology, scenario.tasks);
    const std::vector<double> expected = {
        figure.metric(
            assign::evaluate(instance, assign::LpHta().assign(instance))),
        figure.metric(
            assign::evaluate(instance, assign::Hgos().assign(instance))),
        figure.metric(
            assign::evaluate(instance, assign::AllToCloud().assign(instance))),
        figure.metric(
            assign::evaluate(instance, assign::AllOffload().assign(instance))),
    };
    EXPECT_EQ(g.cell(cfg), expected) << figure.name;
  }
}

// Each DTA grid's cell runs DTA-Workload and DTA-Number (local-greedy
// partial scheduling) on shared_config(config, owners) and reports the
// figure's DtaResult field; Figs. 5(a) and 5(b) lead with holistic
// LP-HTA's energy.
TEST(SweepGridsTest, EachDtaFigureReadsItsField) {
  const struct {
    const char* name;
    std::size_t owners;
    bool holistic;
    double (*field)(const dta::DtaResult&);
    const char* label;
  } figures[] = {
      {"fig5a", 5, true,
       [](const dta::DtaResult& r) { return r.total_energy_j; },
       "total energy (J)"},
      {"fig5b", 5, true,
       [](const dta::DtaResult& r) { return r.total_energy_j; },
       "total energy (J)"},
      {"fig6a", 5, false,
       [](const dta::DtaResult& r) { return r.processing_time_s; },
       "processing time (s)"},
      {"fig6b", 9, false,
       [](const dta::DtaResult& r) {
         return static_cast<double>(r.involved_devices);
       },
       "involved mobile devices"},
  };
  for (const auto& figure : figures) {
    const SweepGrid& g = grid(figure.name);
    EXPECT_EQ(g.series, figure.holistic ? kDtaHolisticSeries : kDtaSeries)
        << figure.name;
    EXPECT_EQ(g.metric_label, figure.label) << figure.name;

    const workload::ScenarioConfig cfg = small_cell(g);
    const dta::SharedDataScenario scenario =
        workload::make_shared_scenario(shared_config(cfg, figure.owners));
    std::vector<double> expected;
    if (figure.holistic) {
      const assign::HtaInstance instance(scenario.topology,
                                         dta::to_holistic_tasks(scenario));
      expected.push_back(
          assign::evaluate(instance, assign::LpHta().assign(instance))
              .total_energy_j);
    }
    dta::DtaOptions options;
    options.scheduler = dta::PartialScheduler::kLocalGreedy;
    options.strategy = dta::DtaStrategy::kWorkload;
    expected.push_back(figure.field(dta::run_dta(scenario, options)));
    options.strategy = dta::DtaStrategy::kNumber;
    expected.push_back(figure.field(dta::run_dta(scenario, options)));
    EXPECT_EQ(g.cell(cfg), expected) << figure.name;
  }
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

TEST(SweepGridsTest, DtaGridIsIdenticalAtEveryJobCount) {
  const SweepGrid& fig6a = grid("fig6a");
  const auto csv_at = [&](std::size_t jobs) {
    exec::SweepOptions options;
    options.jobs = jobs;
    std::ostringstream os;
    run_grid(fig6a, 1, options).write_csv(os);
    return os.str();
  };
  const std::string serial = csv_at(1);
  EXPECT_NE(serial.find("max input (kB),DTA-Workload,DTA-Number"),
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

TEST(SweepGridsTest, RunGridRejectsACellWithTheWrongValueCount) {
  SweepGrid g = grid("smoke");
  g.cell = [](const workload::ScenarioConfig&) {
    return std::vector<double>{1.0};
  };
  EXPECT_THROW(run_grid(g, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mecsched::cli
