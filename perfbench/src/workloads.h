// The benchmark's workloads. Each builds its inputs from the run's seed,
// measures for the run's seconds with tracing off (--trace 0) or makes one
// untraced and one traced pass (--trace 1), and checks the program's
// outputs outside the timed region. Parameters and the reason for each
// workload are in README.md.
#pragma once

#include "report.h"

namespace perfbench {

Report run_serve_steady(const RunConfig& config);
Report run_serve_churn(const RunConfig& config);
Report run_paper_sweep(const RunConfig& config);

}  // namespace perfbench
