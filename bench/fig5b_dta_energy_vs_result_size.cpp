// Fig. 5(b) — energy cost vs result-size model: η(y) ∈ {0.4y, 0.2y, 0.1y,
// 0.05y, constant}. 100 tasks, max input 3000 kB. Series: LP-HTA
// (holistic), DTA-Workload, DTA-Number.
//
// The x column is the result ratio; x = 0 denotes the constant-size model
// (1 kB regardless of input).
//
// Paper's reported shape: the DTA variants' energy shrinks with the result
// size and stays far below LP-HTA; smaller results → bigger advantage.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig5b_dta_energy_vs_result_size");
  using namespace mecsched;
  bench::print_header("Fig. 5(b)", "energy cost vs result size (DTA)",
                      "result = {0.4X, 0.2X, 0.1X, 0.05X, const 1 kB}; "
                      "100 tasks, max input 3000 kB (x=0 => constant)");

  const metrics::SeriesCollector series = cli::run_grid(
      *cli::find_sweep_grid("fig5b"), bench::kRepetitions);

  std::cout << "total energy (J):\n";
  bench::print_table(series, 1);
  bench::maybe_write_csv(series, "fig5b_dta_energy_vs_result_size");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(at(0.4, "DTA-Workload") < at(0.4, "LP-HTA"),
               "DTA-Workload below LP-HTA even at eta=0.4");
  check.expect(at(0.05, "DTA-Workload") < at(0.4, "DTA-Workload"),
               "DTA energy shrinks with the result size");
  check.expect(at(0.0, "DTA-Workload") < at(0.4, "DTA-Workload"),
               "constant (small) results are the cheapest for DTA");
  check.expect(at(0.05, "DTA-Number") < at(0.4, "DTA-Number"),
               "DTA-Number shrinks with result size too");
  return check.exit_code();
}
