#include "report.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>

#include "io/codec.h"
#include "io/json.h"
#include "spans.h"

namespace perfbench {

namespace {

std::vector<MetricSpec> metric_table(const mecsched::io::Json& spec,
                                     const std::string& key) {
  std::vector<MetricSpec> out;
  for (const mecsched::io::Json& m : spec.at(key).as_array()) {
    out.push_back({m.at("name").as_string(), m.at("unit").as_string()});
  }
  return out;
}

}  // namespace

MetricTables load_metric_tables(const std::string& path) {
  const mecsched::io::Json spec =
      mecsched::io::Json::parse(mecsched::io::read_file(path));
  MetricTables t;
  t.end_to_end = metric_table(spec, "end_to_end");
  t.per_layer = metric_table(spec, "per_layer");
  // self.<span>_s is a span's self time; self.other_s sums the rest.
  for (const MetricSpec& m : t.per_layer) {
    const std::string& n = m.name;
    if (n.starts_with("self.") && n.ends_with("_s") && n != "self.other_s") {
      t.self_time_spans.push_back(n.substr(5, n.size() - 7));
    }
  }
  return t;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_seconds() {
  return clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool print_result(const Report& report, const MetricTables& tables,
                  bool trace) {
  std::vector<std::string> failures = report.failures;
  std::set<std::string> listed;
  for (const auto* table : {&tables.end_to_end, &tables.per_layer}) {
    for (const MetricSpec& spec : *table) listed.insert(spec.name);
  }
  for (const auto& [name, value] : report.metrics) {
    if (listed.count(name) == 0) {
      failures.push_back("measured metric not in BENCHMARK.json: " + name);
    }
  }
  std::string metrics;
  for (const MetricSpec& spec : trace ? tables.per_layer : tables.end_to_end) {
    double value = 0.0;
    const auto it = report.metrics.find(spec.name);
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (!trace) {
      failures.push_back("metric not measured: " + spec.name);
    }
    if (!std::isfinite(value)) {
      failures.push_back("metric not finite: " + spec.name);
      value = 0.0;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  // Whatever the other mode's table holds and this run measured anyway
  // (the paper's figure numbers, the failure breakdown) is printed as
  // plain lines, so one run shows every number it took.
  for (const MetricSpec& spec : trace ? tables.end_to_end : tables.per_layer) {
    const auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end()) continue;
    std::cout << "measured " << spec.name << " = " << it->second << ' '
              << spec.unit << '\n';
  }
  for (const std::string& f : failures) {
    std::cout << "correctness check failed: " << f << '\n';
  }
  std::cout << "{\"correct\": " << (failures.empty() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return failures.empty();
}

}  // namespace perfbench
