// The paper's Sec. V figure grids and the one loop that runs them.
//
// Each grid is one figure sweep: where the x-axis runs, how a cell's
// scenario is built, and what a cell measures. The HTA grids (Figs. 2(a),
// 2(b), 3, 4(a), 4(b)) score LP-HTA, HGOS, AllToC and AllOffload; the DTA
// grids (Figs. 5(a), 5(b), 6(a), 6(b)) run DTA-Workload and DTA-Number on
// data-shared scenarios, beside holistic LP-HTA where the figure plots it.
// A tiny `smoke` grid is sized for tests and CI determinism checks.
// run_grid() fans the (x, repetition) cells over exec::SweepRunner.
// `mecsched sweep` and the bench/fig* binaries both call it, so a figure's
// series is defined and computed in one place.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/sweep_runner.h"
#include "metrics/series.h"
#include "workload/scenario.h"
#include "workload/shared_data.h"

namespace mecsched::cli {

// Sec. V.A scale: 50 devices and 5 base stations, and 3 seeds per figure
// cell for smoothing (the default of `mecsched sweep --reps`).
inline constexpr std::size_t kDevices = 50;
inline constexpr std::size_t kStations = 5;
inline constexpr std::size_t kRepetitions = 3;

struct SweepGrid {
  std::string name;         // CLI spelling: --grid <name>
  std::string description;  // one-liner for --list
  std::string x_label;      // CSV/table header of the x column
  std::vector<double> xs;
  // Scenario for the cell at sweep position `x`, repetition `rep`
  // (1-based).
  std::function<workload::ScenarioConfig(double x, std::uint64_t rep)>
      config_at;
  std::string metric_label;  // e.g. "total energy (J)"
  // The figure's series, in column order.
  std::vector<std::string> series = {};
  // Runs one cell on the scenario `config` describes and returns one
  // value per entry of `series`.
  std::function<std::vector<double>(const workload::ScenarioConfig& config)>
      cell = {};
};

// All built-in grids, in listing order.
const std::vector<SweepGrid>& sweep_grids();

// nullptr when `name` is not a known grid.
const SweepGrid* find_sweep_grid(const std::string& name);

// The data-shared scenario a DTA cell runs on: `config`'s devices,
// stations, tasks, max input size, result-size model and seed over a
// universe of 600 blocks, each with up to `max_extra_owners` replicas.
// Every other field keeps SharedDataConfig's default.
workload::SharedDataConfig shared_config(const workload::ScenarioConfig& config,
                                         std::size_t max_extra_owners);

// Runs `reps` repetitions of every x of `grid`: each cell builds the
// config for (x, rep), runs `grid.cell` on it and stores its values under
// the grid's series. Cells fold into the collector in (x, rep, series)
// order whatever the thread schedule, so the series is identical at every
// job count.
metrics::SeriesCollector run_grid(const SweepGrid& grid, std::size_t reps,
                                  const exec::SweepOptions& options = {});

}  // namespace mecsched::cli
