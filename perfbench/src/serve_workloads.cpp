// serve_steady and serve_churn: a city-scale universe and an open-loop
// event trace (in virtual time) replayed through serve::ServeDaemon::run
// as fast as the daemon goes, with a DecisionLog attached.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/tracer.h"
#include "serve/daemon.h"
#include "serve/decision_log.h"
#include "spans.h"
#include "workload/serve_trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mecsched;

constexpr std::size_t kDevices = 100000;
constexpr std::size_t kStations = 250;
constexpr std::size_t kShards = 16;
constexpr double kEpochS = 0.5;
// Trace lengths: long enough that one daemon run takes a few seconds, so
// per-run noise stays small against the run.
constexpr std::size_t kSteadyEpochs = 30;
constexpr std::size_t kChurnEpochs = 30;

struct ServeParams {
  std::size_t epochs;
  double arrivals_per_s;
  double joins_per_s;
  double leaves_per_s;
  double migrates_per_s;
};

workload::ServeTraceConfig trace_config(const ServeParams& p,
                                        std::uint64_t seed) {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = kDevices;
  cfg.scenario.num_base_stations = kStations;
  cfg.scenario.seed = seed;
  cfg.epochs = p.epochs;
  cfg.epoch_s = kEpochS;
  cfg.arrival_rate_per_s = p.arrivals_per_s;
  cfg.join_rate_per_s = p.joins_per_s;
  cfg.leave_rate_per_s = p.leaves_per_s;
  cfg.migrate_rate_per_s = p.migrates_per_s;
  return cfg;
}

struct ServeRun {
  serve::ServeResult result;
  serve::DecisionLog log;
  double wall_s = 0.0;  // ServeDaemon::run alone
  double cpu_s = 0.0;   // its CPU time, every thread together
};

ServeRun run_daemon(const workload::ServeWorkload& w, std::size_t jobs) {
  serve::ServeOptions opts;
  opts.batching.window_s = kEpochS;
  opts.sharding.num_shards = kShards;
  opts.jobs = jobs;
  const serve::ServeDaemon daemon(opts);
  ServeRun out;
  const double c0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  out.result = spanned("perfbench.serve_run", [&] {
    return daemon.run(w.universe, w.trace, &out.log);
  });
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_seconds() - c0;
  return out;
}

// Conservation, a complete run, and a log that agrees with the tallies.
// Returns the tasks the run lost: arrivals without a terminal disposition.
std::size_t check_run(const ServeRun& run, const std::string& label,
                      Report& rep) {
  const serve::ServeResult& r = run.result;
  const std::size_t settled = r.rejected + r.completed + r.expired +
                              r.lost_issuer + r.exhausted + r.abandoned;
  rep.check(r.arrivals == r.admitted + r.rejected && r.arrivals == settled,
            label + ": every admitted task reaches one terminal state");
  rep.check(!r.stopped_early, label + ": ran to completion");
  rep.check(r.decisions > 0, label + ": placed tasks");
  std::size_t decided = 0;
  std::size_t rejected = 0;
  for (const serve::DecisionRecord& rec : run.log.records()) {
    decided += rec.kind == serve::DecisionKind::kDecide ? 1 : 0;
    rejected += rec.kind == serve::DecisionKind::kReject ? 1 : 0;
  }
  rep.check(decided == r.decisions && rejected == r.rejected,
            label + ": decision log agrees with the run's tallies");
  return r.arrivals > settled ? r.arrivals - settled : settled - r.arrivals;
}

// A sink that takes every byte and keeps none: times write_csv's
// formatting without the disk.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// The user-visible quality numbers, exact from the decision log.
void quality_metrics(const ServeRun& run, Report& rep) {
  const serve::ServeResult& r = run.result;
  std::vector<double> latency_ms;
  latency_ms.reserve(r.decisions);
  for (const serve::DecisionRecord& rec : run.log.records()) {
    if (rec.kind == serve::DecisionKind::kDecide) {
      latency_ms.push_back(rec.latency_s * 1e3);
    }
  }
  const std::size_t unplaced = r.rejected + r.expired + r.exhausted;
  rep.metrics["admit_to_decision_p50_ms"] = quantile(latency_ms, 0.5);
  rep.metrics["admit_to_decision_p99_ms"] = quantile(latency_ms, 0.99);
  rep.metrics["energy_per_decision_j"] =
      r.total_energy_j / static_cast<double>(r.decisions);
  rep.metrics["unplaced_share"] =
      static_cast<double>(unplaced) / static_cast<double>(r.arrivals);
  rep.metrics["fail.attempted"] = static_cast<double>(r.arrivals);
  rep.metrics["fail.rejected"] = static_cast<double>(r.rejected);
  rep.metrics["fail.expired"] = static_cast<double>(r.expired);
  rep.metrics["fail.exhausted"] = static_cast<double>(r.exhausted);
  rep.metrics["fail.lost_issuer"] = static_cast<double>(r.lost_issuer);
  std::cout << "arrivals " << r.arrivals << ", decisions " << r.decisions
            << ", unplaced " << unplaced << " (rejected " << r.rejected
            << ", expired " << r.expired << ", exhausted " << r.exhausted
            << "), lost_issuer " << r.lost_issuer << ", retries "
            << r.retries << '\n';
}

Report run_serve(const RunConfig& rc, const ServeParams& params) {
  Report rep;
  const workload::ServeTraceConfig cfg = trace_config(params, rc.seed);
  const workload::ServeWorkload w = workload::make_serve_workload(cfg);
  rep.metrics["exec.jobs"] = static_cast<double>(rc.jobs);

  // Warm-up run, untimed: the first run of a process is slower than every
  // later one. Its outputs are the reference the others match,
  // and its registry counts size the tracer ring.
  reset_registry();
  const ServeRun reference = run_daemon(w, rc.jobs);
  const std::size_t spans = spans_in_last_pass();
  // Peak memory of set-up plus one run; later runs only re-use the heap.
  rep.metrics["peak_rss_mib"] = peak_rss_mib();
  const std::uint64_t digest = reference.log.digest();
  rep.attempted = reference.result.arrivals;
  rep.failed = check_run(reference, "warm-up run", rep);

  // Timed region: whole daemon runs until the run's seconds are spent,
  // each followed by one timed input generation, so set-up samples span
  // the run as the daemon runs do and the machine's drift over it moves
  // both alike. Throughput and set-up are taken on the CPU clock, which a
  // busy host moves far less than the wall clock.
  std::vector<double> setup;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> wall_rates;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const ServeRun r = run_daemon(w, rc.jobs);
    walls.push_back(r.wall_s);
    rates.push_back(static_cast<double>(r.result.decisions) / r.cpu_s);
    wall_rates.push_back(static_cast<double>(r.result.decisions) / r.wall_s);
    rep.check(r.log.digest() == digest,
              "timed run " + std::to_string(walls.size()) +
                  ": decision log digest matches the warm-up run");
    const double c0 = process_cpu_seconds();
    const workload::ServeWorkload again = workload::make_serve_workload(cfg);
    setup.push_back(process_cpu_seconds() - c0);
    rep.check(again.trace.size() == w.trace.size(),
              "the same seed generates the same trace");
  } while (seconds_since(t0) < rc.seconds);
  rep.metrics["setup_s"] = median(setup);
  rep.metrics["decisions_per_cpu_s"] = median(rates);
  rep.metrics["wall.decisions_per_s"] = median(wall_rates);
  std::cout << "serve runs " << walls.size() << ", wall s";
  for (const double wall : walls) std::cout << ' ' << wall;
  std::cout << '\n';

  quality_metrics(reference, rep);
  if (!rc.trace) return rep;

  // The traced pass's extra references: a jobs=1 run for the parallel
  // efficiency, and the traced run itself; both must match the digest.
  const ServeRun serial = run_daemon(w, 1);
  check_run(serial, "jobs=1 run", rep);
  rep.check(serial.log.digest() == digest,
            "jobs=1 decision log digest matches jobs=" +
                std::to_string(rc.jobs));
  rep.metrics["exec.parallel_efficiency"] =
      serial.wall_s / median(walls) / static_cast<double>(rc.jobs);

  reset_registry();
  start_tracing(spans);
  ServeRun traced;
  {
    const obs::ScopedTimer pass("perfbench.pass", "perfbench");
    spanned("perfbench.make_serve_workload",
            [&] { workload::make_serve_workload(cfg); });
    traced = run_daemon(w, rc.jobs);
    DiscardBuf discard;
    std::ostream sink(&discard);
    spanned("perfbench.write_csv", [&] { traced.log.write_csv(sink); });
  }
  finish_tracing(rc, rep);
  check_run(traced, "traced run", rep);
  rep.check(traced.log.digest() == digest,
            "traced decision log digest matches the untraced runs");

  const serve::ServeResult& r = traced.result;
  rep.metrics["serve.events"] = static_cast<double>(r.events);
  rep.metrics["serve.churn_events"] =
      static_cast<double>(r.events - r.arrivals);
  rep.metrics["serve.shard_solves"] = static_cast<double>(r.shard_solves);
  rep.metrics["serve.readmissions"] = static_cast<double>(r.retries);
  rep.metrics["io.decision_log.rows"] = static_cast<double>(traced.log.size());
  read_registry_layers(rep);
  rep.metrics["fail.cancelled_capacity"] =
      registry_counter("lp_hta.cancelled_capacity");
  rep.metrics["fail.cancelled_infeasible"] =
      registry_counter("lp_hta.cancelled_infeasible");
  rep.metrics["obs.tracing_overhead"] = traced.wall_s / median(walls) - 1.0;
  write_layers_json(rc.out_dir, rep);
  return rep;
}

}  // namespace

Report run_serve_steady(const RunConfig& config) {
  return run_serve(config, {kSteadyEpochs, 24000.0, 10.0, 10.0, 40.0});
}

Report run_serve_churn(const RunConfig& config) {
  return run_serve(config, {kChurnEpochs, 8000.0, 1000.0, 1000.0, 1000.0});
}

}  // namespace perfbench
