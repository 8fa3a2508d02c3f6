// Benchmark driver:
//
//   perfbench --workload serve_steady|serve_churn|paper_sweep --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it makes one untraced and one traced pass and reports the
// per-layer metrics, writing trace.json and layers.json to DIR. Run it
// from the repository root: metric names and units come from
// BENCHMARK.json there. The last line of stdout is the JSON result; the
// exit code is non-zero when a correctness check fails.
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "audit/audit.h"
#include "report.h"
#include "workloads.h"

namespace {

// CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload serve_steady|serve_churn|"
               "paper_sweep --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n";
  std::exit(2);
}

unsigned long long parse_count(const std::string& flag,
                               const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  if (used != text.size() || text.front() == '-') {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.jobs = usable_cpus();
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = parse_count(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(parse_count(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (config.seconds < 1.0) usage("--seconds must be at least 1");
  if (config.out_dir.empty()) config.out_dir = ".bench_out/" + config.workload;

  perfbench::Report (*run)(const perfbench::RunConfig&) = nullptr;
  if (config.workload == "serve_steady") {
    run = perfbench::run_serve_steady;
  } else if (config.workload == "serve_churn") {
    run = perfbench::run_serve_churn;
  } else if (config.workload == "paper_sweep") {
    run = perfbench::run_paper_sweep;
  } else {
    usage("unknown workload '" + config.workload + "'");
  }

  // Time the production configuration whatever MECSCHED_AUDIT says; the
  // workloads run their audits outside the timed region.
  mecsched::audit::set_level(mecsched::audit::Level::kOff);
  try {
    config.tables = perfbench::load_metric_tables("BENCHMARK.json");
    std::filesystem::create_directories(config.out_dir);
    const perfbench::Report report = run(config);
    return perfbench::print_result(report, config.tables, config.trace)
               ? EXIT_SUCCESS
               : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what()
              << '\n';
    return EXIT_FAILURE;
  }
}
