#include "cli/sweep_grids.h"

#include <memory>

#include "assign/assigner.h"
#include "assign/baselines.h"
#include "assign/evaluator.h"
#include "assign/hgos.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/error.h"
#include "dta/pipeline.h"

namespace mecsched::cli {
namespace {

std::vector<double> range(double lo, double hi, double step) {
  std::vector<double> xs;
  for (double x = lo; x <= hi; x += step) xs.push_back(x);
  return xs;
}

// A cell at the Sec. V.A scale: `tasks` tasks of up to `max_input_kb`,
// seeded from the repetition and the cell's `key`.
workload::ScenarioConfig paper_cell(double tasks, double max_input_kb,
                                    std::uint64_t rep, double key) {
  workload::ScenarioConfig cfg;
  cfg.num_devices = kDevices;
  cfg.num_base_stations = kStations;
  cfg.num_tasks = static_cast<std::size_t>(tasks);
  cfg.max_input_kb = max_input_kb;
  cfg.seed = rep * 1000 + static_cast<std::uint64_t>(key);
  return cfg;
}

workload::ScenarioConfig tasks_cell(double x, std::uint64_t rep) {
  return paper_cell(x, 3000.0, rep, x);
}

workload::ScenarioConfig datasize_cell(double x, std::uint64_t rep) {
  return paper_cell(100, x, rep, x);
}

// Fig. 5(b): x is the result ratio η; x = 0 is the constant-size model.
workload::ScenarioConfig result_size_cell(double ratio, std::uint64_t rep) {
  workload::ScenarioConfig cfg = paper_cell(100, 3000.0, rep, ratio * 100);
  if (ratio == 0.0) {
    // "Constant" in Fig. 5(b) is a scalar aggregate (a Sum/Count), far
    // below any proportional result.
    cfg.result_kind = mec::ResultSizeKind::kConstant;
    cfg.result_const_kb = 1.0;
  } else {
    cfg.result_ratio = ratio;
  }
  return cfg;
}

double energy(const assign::Metrics& m) { return m.total_energy_j; }
double latency(const assign::Metrics& m) { return m.mean_latency_s; }
double unsatisfied(const assign::Metrics& m) { return m.unsatisfied_rate(); }
double dta_energy(const dta::DtaResult& r) { return r.total_energy_j; }
double dta_time(const dta::DtaResult& r) { return r.processing_time_s; }
double dta_devices(const dta::DtaResult& r) {
  return static_cast<double>(r.involved_devices);
}

std::vector<std::unique_ptr<assign::Assigner>> hta_algorithms() {
  std::vector<std::unique_ptr<assign::Assigner>> algorithms;
  algorithms.push_back(std::make_unique<assign::LpHta>());
  algorithms.push_back(std::make_unique<assign::Hgos>());
  algorithms.push_back(std::make_unique<assign::AllToCloud>());
  algorithms.push_back(std::make_unique<assign::AllOffload>());
  return algorithms;
}

// Completes `grid` as an HTA figure: LP-HTA, HGOS, AllToC and AllOffload
// on the cell's scenario, each plan scored by `metric`.
SweepGrid hta_grid(SweepGrid grid, double (*metric)(const assign::Metrics&)) {
  for (const auto& a : hta_algorithms()) grid.series.push_back(a->name());
  grid.cell = [metric](const workload::ScenarioConfig& config) {
    const workload::Scenario scenario = workload::make_scenario(config);
    const assign::HtaInstance instance(scenario.topology, scenario.tasks);
    std::vector<double> values;
    for (const auto& algorithm : hta_algorithms()) {
      values.push_back(
          metric(assign::evaluate(instance, algorithm->assign(instance))));
    }
    return values;
  };
  return grid;
}

// Completes `grid` as a DTA figure: DTA-Workload and DTA-Number, with
// local-greedy scheduling of the rearranged tasks, read through `metric`.
// `with_holistic` adds holistic LP-HTA's energy as the first series.
SweepGrid dta_grid(SweepGrid grid, std::size_t max_extra_owners,
                   bool with_holistic,
                   double (*metric)(const dta::DtaResult&)) {
  grid.series = {"DTA-Workload", "DTA-Number"};
  if (with_holistic) grid.series.insert(grid.series.begin(), "LP-HTA");
  grid.cell = [=](const workload::ScenarioConfig& config) {
    const dta::SharedDataScenario scenario =
        workload::make_shared_scenario(shared_config(config, max_extra_owners));
    std::vector<double> values;
    if (with_holistic) {
      const assign::HtaInstance instance(scenario.topology,
                                         dta::to_holistic_tasks(scenario));
      values.push_back(
          assign::evaluate(instance, assign::LpHta().assign(instance))
              .total_energy_j);
    }
    dta::DtaOptions options;
    options.scheduler = dta::PartialScheduler::kLocalGreedy;
    for (const dta::DtaStrategy strategy :
         {dta::DtaStrategy::kWorkload, dta::DtaStrategy::kNumber}) {
      options.strategy = strategy;
      values.push_back(metric(dta::run_dta(scenario, options)));
    }
    return values;
  };
  return grid;
}

std::vector<SweepGrid> make_grids() {
  const std::vector<double> task_axis = range(100, 450, 50);
  const std::vector<double> input_axis = range(1000, 5000, 1000);
  return {
      hta_grid({"fig2a", "energy cost vs number of tasks (100..450)", "tasks",
                task_axis, tasks_cell, "total energy (J)"},
               energy),
      hta_grid({"fig2b", "energy cost vs max input size (1000..5000 kB)",
                "max input (kB)", input_axis, datasize_cell,
                "total energy (J)"},
               energy),
      hta_grid({"fig3", "unsatisfied task rate vs number of tasks (100..450)",
                "tasks", task_axis, tasks_cell,
                "unsatisfied task rate (fraction of tasks)"},
               unsatisfied),
      hta_grid({"fig4a", "average latency vs number of tasks (100..450)",
                "tasks", task_axis, tasks_cell, "average latency (s)"},
               latency),
      hta_grid({"fig4b", "average latency vs max input size (1000..5000 kB)",
                "max input (kB)", input_axis, datasize_cell,
                "average latency (s)"},
               latency),
      dta_grid({"fig5a", "DTA energy cost vs number of tasks (100..450)",
                "tasks", task_axis, tasks_cell, "total energy (J)"},
               5, true, dta_energy),
      dta_grid({"fig5b",
                "DTA energy cost vs result size (0.4X..0.05X, 0 = const)",
                "result ratio", {0.4, 0.2, 0.1, 0.05, 0.0}, result_size_cell,
                "total energy (J)"},
               5, true, dta_energy),
      dta_grid({"fig6a", "DTA processing time vs max input (1200..2000 kB)",
                "max input (kB)", range(1200, 2000, 200),
                [](double x, std::uint64_t rep) {
                  return paper_cell(200, x, rep, x);
                },
                "processing time (s)"},
               5, false, dta_time),
      // Heavy replication (overlapping monitoring regions) gives the
      // set-cover strategy room to concentrate work on few devices.
      dta_grid({"fig6b", "DTA involved devices vs number of tasks (100..900)",
                "tasks", range(100, 900, 200),
                [](double x, std::uint64_t rep) {
                  return paper_cell(x, 2000.0, rep, x);
                },
                "involved mobile devices"},
               9, false, dta_devices),
      // Deliberately tiny: exercises the full parallel path (pool, shards)
      // in well under a second, for unit tests and the CI determinism check.
      hta_grid({"smoke", "tiny fast grid for tests and CI determinism",
                "tasks", range(20, 40, 10),
                [](double x, std::uint64_t rep) {
                  workload::ScenarioConfig cfg = paper_cell(x, 1000.0, rep, x);
                  cfg.num_devices = 10;
                  cfg.num_base_stations = 2;
                  return cfg;
                },
                "total energy (J)"},
               energy),
  };
}

}  // namespace

const std::vector<SweepGrid>& sweep_grids() {
  // Function-local static: constructed once on first use, destroyed at
  // exit — no heap leak, no naked new.
  static const std::vector<SweepGrid> grids = make_grids();
  return grids;
}

const SweepGrid* find_sweep_grid(const std::string& name) {
  for (const SweepGrid& g : sweep_grids()) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

workload::SharedDataConfig shared_config(const workload::ScenarioConfig& config,
                                         std::size_t max_extra_owners) {
  workload::SharedDataConfig shared;
  shared.num_devices = config.num_devices;
  shared.num_base_stations = config.num_base_stations;
  shared.num_tasks = config.num_tasks;
  shared.max_input_kb = config.max_input_kb;
  shared.result_kind = config.result_kind;
  shared.result_ratio = config.result_ratio;
  shared.result_const_kb = config.result_const_kb;
  shared.seed = config.seed;
  shared.num_items = 600;
  shared.max_extra_owners = max_extra_owners;
  return shared;
}

metrics::SeriesCollector run_grid(const SweepGrid& grid, std::size_t reps,
                                  const exec::SweepOptions& options) {
  const std::vector<std::vector<double>> results =
      exec::SweepRunner(options).run<std::vector<double>>(
          grid.xs.size() * reps, [&](exec::CellContext& ctx) {
            const double x = grid.xs[ctx.index() / reps];
            const std::uint64_t rep = ctx.index() % reps + 1;
            return grid.cell(grid.config_at(x, rep));
          });
  metrics::SeriesCollector series(grid.x_label, grid.series);
  for (std::size_t i = 0; i < results.size(); ++i) {
    MECSCHED_REQUIRE(results[i].size() == grid.series.size(),
                     grid.name + ": a cell must return one value per series");
    for (std::size_t s = 0; s < grid.series.size(); ++s) {
      series.add(grid.xs[i / reps], grid.series[s], results[i][s]);
    }
  }
  return series;
}

}  // namespace mecsched::cli
