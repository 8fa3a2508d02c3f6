// Fig. 6(a) — processing time of DTA-Workload vs DTA-Number while the
// maximum input size grows from 1200 to 2000 kB; 200 tasks.
//
// Paper's reported shape: DTA-Workload's processing time is clearly
// smaller — balanced shares shorten the parallel makespan.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig6a_dta_processing_time");
  using namespace mecsched;
  bench::print_header("Fig. 6(a)", "processing time (DTA-Workload vs Number)",
                      "input 1200..2000 kB, 200 tasks, 50 devices, "
                      "5 stations, 3 seeds/cell");

  const cli::SweepGrid& grid = *cli::find_sweep_grid("fig6a");
  const metrics::SeriesCollector series =
      cli::run_grid(grid, bench::kRepetitions);

  std::cout << "processing time (s):\n";
  bench::print_table(series, 3);
  bench::maybe_write_csv(series, "fig6a_dta_processing_time");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  for (const double kb : grid.xs) {
    check.expect(at(kb, "DTA-Workload") < at(kb, "DTA-Number"),
                 "workload-balanced division is faster at " +
                     Table::num(kb, 0) + " kB");
  }
  check.expect(at(2000, "DTA-Workload") > at(1200, "DTA-Workload"),
               "processing time grows with input size");
  return check.exit_code();
}
