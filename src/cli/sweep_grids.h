// The paper's Sec. V HTA figure grids and the one loop that runs them.
//
// Each grid is one figure sweep (Figs. 2(a), 2(b), 3, 4(a), 4(b)): where
// the x-axis runs, how a cell's scenario is built, and which metric each
// cell reports; a tiny `smoke` grid is sized for tests and CI determinism
// checks. run_grid() fans the (x, repetition) cells over
// exec::SweepRunner. `mecsched sweep` and the bench/fig* binaries both
// call it, so a figure's series is defined and computed in one place.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "assign/evaluator.h"
#include "exec/sweep_runner.h"
#include "metrics/series.h"
#include "workload/scenario.h"

namespace mecsched::cli {

struct SweepGrid {
  std::string name;         // CLI spelling: --grid <name>
  std::string description;  // one-liner for --list
  std::string x_label;      // CSV/table header of the x column
  std::vector<double> xs;
  // Scenario for the cell at sweep position `x`, repetition `rep`
  // (1-based).
  std::function<workload::ScenarioConfig(double x, std::uint64_t rep)>
      config_at;
  // The per-cell measurement stored under each algorithm's series.
  std::function<double(const assign::Metrics&)> metric;
  std::string metric_label;  // e.g. "total energy (J)"
};

// All built-in grids, in listing order.
const std::vector<SweepGrid>& sweep_grids();

// nullptr when `name` is not a known grid.
const SweepGrid* find_sweep_grid(const std::string& name);

// Runs `reps` repetitions of every x of `grid`: each cell builds the
// scenario for (x, rep), runs LP-HTA, HGOS, AllToC and AllOffload on it
// and stores `grid.metric` under the algorithm's series. Cells fold into
// the collector in (x, rep, algorithm) order whatever the thread
// schedule, so the series is identical at every job count.
metrics::SeriesCollector run_grid(const SweepGrid& grid, std::size_t reps,
                                  const exec::SweepOptions& options = {});

}  // namespace mecsched::cli
