// What one benchmark run reports, and the metric tables every run prints
// from, read from BENCHMARK.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

// BENCHMARK.json's metric tables: the one place metric names and units are
// written down.
struct MetricTables {
  std::vector<MetricSpec> end_to_end;  // printed with --trace 0
  std::vector<MetricSpec> per_layer;   // printed with --trace 1
  // Spans whose self time is the per-layer metric self.<span>_s; any other
  // span lands in self.other_s.
  std::vector<std::string> self_time_spans;
};

// Reads the tables from the BENCHMARK.json at `path`; throws when the file
// is missing or malformed.
MetricTables load_metric_tables(const std::string& path);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 1;
  std::string out_dir;
  MetricTables tables;
};

struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;  // failed correctness checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// Median of `values`; 0 when empty.
double median(std::vector<double> values);

// Seconds since `t0` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point t0);

// CPU time this process has run, all threads together, in seconds. The
// kernel leaves out the time the host's hypervisor takes its vCPUs away
// (steal) and the time threads wait, so on a shared host it moves far less
// run to run than the steady clock does.
double process_cpu_seconds();

// CPU time the calling thread has run, in seconds (steal left out).
double thread_cpu_seconds();

// Peak resident set size of this process, MiB.
double peak_rss_mib();

// Prints the metrics of the other mode's table that the run measured, one
// per line, then the result line (the last line of stdout): correctness,
// counts, and the metric table the run's mode selects. A missing
// end-to-end metric, or a measured metric in neither table, is a failure;
// missing per-layer metrics read 0 (the layer did not run on this
// workload). Returns whether every check passed.
bool print_result(const Report& report, const MetricTables& tables,
                  bool trace);

}  // namespace perfbench
