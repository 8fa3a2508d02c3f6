// Fig. 6(b) — number of involved mobile devices, DTA-Workload vs
// DTA-Number, tasks 100 → 900, max input 2000 kB.
//
// Paper's reported shape: DTA-Number involves clearly fewer devices
// (that's its objective), saving energy for the majority of devices.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig6b_dta_involved_devices");
  using namespace mecsched;
  bench::print_header("Fig. 6(b)", "involved devices (DTA-Workload vs Number)",
                      "tasks 100..900, max input 2000 kB, 50 devices, "
                      "5 stations, 3 seeds/cell");

  const cli::SweepGrid& grid = *cli::find_sweep_grid("fig6b");
  const metrics::SeriesCollector series =
      cli::run_grid(grid, bench::kRepetitions);

  std::cout << "involved mobile devices:\n";
  bench::print_table(series, 1);
  bench::maybe_write_csv(series, "fig6b_dta_involved_devices");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  for (const double t : grid.xs) {
    check.expect(at(t, "DTA-Number") < at(t, "DTA-Workload"),
                 "set-cover division involves fewer devices at " +
                     Table::num(t, 0) + " tasks");
  }
  return check.exit_code();
}
