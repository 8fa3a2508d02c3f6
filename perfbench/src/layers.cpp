#include "layers.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <set>
#include <string_view>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "spans.h"

namespace perfbench {
namespace {

constexpr std::string_view kSpanHistogramSuffix = ".seconds";
// Room for instants (a failed fallback rung records one) and for spans an
// untraced pass does not count.
constexpr std::size_t kTracerSlack = 1 << 16;

double counter_prefix_sum(const std::string& prefix) {
  double sum = 0.0;
  for (const auto& [n, v] : mecsched::obs::Registry::global().counters()) {
    if (n.rfind(prefix, 0) == 0) sum += static_cast<double>(v);
  }
  return sum;
}

double histogram_sum(const std::string& name) {
  for (const auto& [n, h] : mecsched::obs::Registry::global().histograms()) {
    if (n == name) return h->summary().sum();
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double registry_counter(const std::string& name) {
  for (const auto& [n, v] : mecsched::obs::Registry::global().counters()) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

void reset_registry() { mecsched::obs::Registry::global().reset(); }

std::size_t spans_in_last_pass() {
  std::size_t spans = 0;
  for (const auto& [n, h] : mecsched::obs::Registry::global().histograms()) {
    if (n.size() > kSpanHistogramSuffix.size() &&
        n.compare(n.size() - kSpanHistogramSuffix.size(),
                  kSpanHistogramSuffix.size(), kSpanHistogramSuffix) == 0) {
      spans += h->summary().count();
    }
  }
  return spans;
}

void start_tracing(std::size_t spans) {
  mecsched::obs::Tracer::global().enable(spans + kTracerSlack);
}

void finish_tracing(const RunConfig& config, Report& report) {
  mecsched::obs::Tracer& tracer = mecsched::obs::Tracer::global();
  tracer.disable();
  const std::vector<mecsched::obs::TraceEvent> events = tracer.snapshot();
  const auto dropped = static_cast<double>(tracer.dropped());
  mecsched::obs::write_chrome_trace(tracer, config.out_dir + "/trace.json");
  tracer.clear();

  std::map<std::string, double>& m = report.metrics;
  m["obs.tracer.events"] = static_cast<double>(events.size());
  m["obs.tracer.dropped"] = dropped;
  report.check(dropped == 0.0, "tracer ring dropped events");

  const std::vector<Span> spans = spans_from_events(events);
  const std::map<std::string, SpanTotals> totals = totals_by_name(spans);
  const auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };

  const std::vector<std::string>& named = config.tables.self_time_spans;
  const std::set<std::string> known(named.begin(), named.end());
  for (const std::string& name : named) m["self." + name + "_s"] = 0.0;
  double other = 0.0;
  for (const auto& [name, t] : totals) {
    if (known.count(name) != 0) {
      m["self." + name + "_s"] = t.self_s;
    } else {
      other += t.self_s;
    }
  }
  m["self.other_s"] = other;

  const double wall = total("perfbench.pass");
  const double unexplained = m["self.perfbench.pass_s"];
  m["trace.wall_s"] = wall;
  m["trace.unexplained_s"] = unexplained;
  m["trace.unexplained_share"] = ratio(unexplained, wall);
  report.check(totals.count("perfbench.pass") == 1 &&
                   totals.at("perfbench.pass").count == 1,
               "traced pass has exactly one root span");

  const std::vector<double> epochs = durations_s(spans, "serve.epoch");
  m["serve.run_s"] = total("serve.run");
  m["serve.epochs"] = static_cast<double>(epochs.size());
  m["serve.epoch_p50_ms"] = quantile(epochs, 0.5) * 1e3;
  m["serve.epoch_p90_ms"] = quantile(epochs, 0.9) * 1e3;
  m["assign.lp_hta.assign_s"] = total("lp_hta.assign");
  m["assign.lp_hta.relax_s"] = total("lp_hta.relax");
  m["assign.lp_hta.round_s"] = total("lp_hta.round");
  m["assign.lp_hta.repair_s"] = total("lp_hta.repair");
  m["assign.hgos_s"] = total("perfbench.hgos");
  m["assign.baselines_s"] =
      total("perfbench.alltoc") + total("perfbench.alloffload");
  m["lp.simplex.solve_s"] = total("lp.simplex.solve");
  m["dta.workload_s"] = total("perfbench.dta_workload");
  m["dta.number_s"] = total("perfbench.dta_number");
  m["dta.holistic_lp_hta_s"] = total("perfbench.holistic_lp_hta");
  m["workload.make_serve_workload_s"] = total("perfbench.make_serve_workload");
  m["workload.make_scenario_s"] = total("perfbench.make_scenario");
  m["workload.make_shared_scenario_s"] =
      total("perfbench.make_shared_scenario");
  m["io.decision_log.write_csv_ms"] = total("perfbench.write_csv") * 1e3;
}

void read_registry_layers(Report& report) {
  std::map<std::string, double>& m = report.metrics;

  const double solve_ms = histogram_sum("serve.epoch.solve_ms");
  const double run_ms = m["serve.run_s"] * 1e3;
  const double events = m["serve.events"];
  m["serve.solve_ms"] = solve_ms;
  m["serve.serial_ms"] = run_ms > 0.0 ? run_ms - solve_ms : 0.0;
  m["serve.serial_share"] = ratio(m["serve.serial_ms"], run_ms);
  m["serve.serial_us_per_event"] = ratio(m["serve.serial_ms"] * 1e3, events);

  const double rung_ms = histogram_sum("fallback.rung_ms");
  const double attempts = counter_prefix_sum("fallback.served.") +
                          counter_prefix_sum("fallback.failed.") +
                          counter_prefix_sum("fallback.skipped.");
  m["control.fallback.assign_ms"] = rung_ms;
  m["control.fallback.lp_hta_share"] =
      ratio(registry_counter("fallback.served.LP-HTA"), attempts);
  m["control.shard_imbalance"] = ratio(solve_ms * m["exec.jobs"], rung_ms);

  const double hits = registry_counter("exec.cache.hits");
  const double lookups = hits + registry_counter("exec.cache.misses");
  m["exec.instance_cache.lookups"] = lookups;
  m["exec.instance_cache.hit_ratio"] = ratio(hits, lookups);
  m["exec.pool.steals"] = registry_counter("exec.pool.steals");

  const double solves = registry_counter("lp.simplex.solves");
  m["assign.lp_hta.clusters"] = registry_counter("lp_hta.clusters_solved");
  m["lp.simplex.solves"] = solves;
  m["lp.simplex.pivots"] = registry_counter("lp.simplex.pivots");
  m["lp.simplex.pivots_per_s"] =
      ratio(m["lp.simplex.pivots"], m["lp.simplex.solve_s"]);
  m["lp.simplex.refactorizations"] =
      registry_counter("lp.simplex.refactorizations");
  m["lp.simplex.warm_share"] =
      ratio(registry_counter("lp.simplex.warm_solves"), solves);
}

void write_layers_json(const std::string& out_dir, const Report& report) {
  std::ofstream out(out_dir + "/layers.json");
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << "{\n";
  const char* sep = "";
  for (const auto& [name, value] : report.metrics) {
    out << sep << "  \"" << name << "\": " << value;
    sep = ",\n";
  }
  out << "\n}\n";
}

}  // namespace perfbench
