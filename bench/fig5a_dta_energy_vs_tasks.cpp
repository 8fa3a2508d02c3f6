// Fig. 5(a) — energy cost vs number of tasks (100 → 450) on data-shared
// divisible workloads. Series: LP-HTA (treating each task holistically),
// DTA-Workload, DTA-Number. Max input 3000 kB, result ratio η = 0.2.
//
// Paper's reported shape: both DTA variants cost far less than holistic
// LP-HTA, and the gap widens as tasks (and thus avoided raw transfers)
// grow.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig5a_dta_energy_vs_tasks");
  using namespace mecsched;
  bench::print_header("Fig. 5(a)", "energy cost vs number of tasks (DTA)",
                      "tasks 100..450, max input 3000 kB, eta 0.2, "
                      "50 devices, 5 stations, 3 seeds/cell");

  const metrics::SeriesCollector series = cli::run_grid(
      *cli::find_sweep_grid("fig5a"), bench::kRepetitions);

  std::cout << "total energy (J):\n";
  bench::print_table(series, 1);
  bench::maybe_write_csv(series, "fig5a_dta_energy_vs_tasks");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(at(450, "DTA-Workload") < at(450, "LP-HTA"),
               "DTA-Workload below holistic LP-HTA");
  check.expect(at(450, "DTA-Number") < at(450, "LP-HTA"),
               "DTA-Number below holistic LP-HTA");
  const double gap_small = at(100, "LP-HTA") - at(100, "DTA-Workload");
  const double gap_large = at(450, "LP-HTA") - at(450, "DTA-Workload");
  check.expect(gap_large > gap_small,
               "the DTA saving widens as tasks increase");
  return check.exit_code();
}
