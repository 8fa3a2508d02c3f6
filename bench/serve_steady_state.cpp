// Steady-state throughput of the `mecsched serve` daemon at city scale:
// 100k devices across 250 cells, ~12k task arrivals per 0.5 s epoch with
// live churn, solved over 16 shards. Headlines are decisions/sec and the
// p99s of the serve.* windowed metrics (admission-to-decision latency,
// per-epoch solve time); bench/baselines/serve_steady_state.json gates
// them in CI via tools/bench/trajectory.py.
//
// The run is deterministic at any worker count (same contract the
// daemon's CI determinism diff checks), so the only machine-dependent
// numbers are the wall-clock-derived ones, which the baseline floors
// conservatively.
//
// A second arm holds the churn fixed (4000 joins, leaves and migrates per
// second each) and grows the running set 4x through the arrival rate. The
// ingest time churn adds per churn event (the serve.ingest span, less the
// same arrivals' ingest without churn) must stay flat: churn visits only
// the tasks it interrupts, so the 4x/1x ratio is gated at 1.5.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <limits>

#include "bench_common.h"
#include "exec/thread_pool.h"
#include "obs/registry.h"
#include "serve/daemon.h"
#include "workload/serve_trace.h"

namespace {

using namespace mecsched;

constexpr std::size_t kCityDevices = 100000;
constexpr std::size_t kCityStations = 250;
constexpr std::size_t kEpochs = 4;
constexpr double kEpochSeconds = 0.5;
constexpr double kArrivalRatePerS = 24000.0;  // ~12k tasks per epoch

constexpr std::size_t kScalingEpochs = 16;
constexpr double kChurnRatePerS = 4000.0;  // each of join/leave/migrate
constexpr double kScalingArrivalsPerS = 1500.0;
constexpr std::size_t kScalingReps = 3;

double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

workload::ServeWorkload scaling_workload(double arrival_rate_per_s,
                                         double churn_rate_per_s) {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = kCityDevices;
  cfg.scenario.num_base_stations = kCityStations;
  cfg.scenario.seed = 2;
  cfg.epochs = kScalingEpochs;
  cfg.epoch_s = kEpochSeconds;
  cfg.arrival_rate_per_s = arrival_rate_per_s;
  cfg.join_rate_per_s = churn_rate_per_s;
  cfg.leave_rate_per_s = churn_rate_per_s;
  cfg.migrate_rate_per_s = churn_rate_per_s;
  return workload::make_serve_workload(cfg);
}

// Wall seconds one daemon run spends in ingest, read off the serve.ingest
// span histogram.
double ingest_seconds(const workload::ServeWorkload& w,
                      const serve::ServeOptions& opts) {
  const obs::Histogram& ingest =
      obs::Registry::global().histogram("serve.ingest.seconds");
  const double before_s = ingest.summary().sum();
  serve::ServeDaemon(opts).run(w.universe, w.trace);
  return ingest.summary().sum() - before_s;
}

// Ingest time the churn adds, per churn event, in microseconds: the
// churned trace against the same arrivals without churn (the generator
// draws each event kind from its own stream, so the arrivals match). Best
// of kScalingReps runs each, so a busy host inflates neither side alone.
double churn_ingest_us_per_event(double arrival_rate_per_s,
                                 const serve::ServeOptions& opts) {
  const workload::ServeWorkload churned =
      scaling_workload(arrival_rate_per_s, kChurnRatePerS);
  const workload::ServeWorkload calm =
      scaling_workload(arrival_rate_per_s, 0.0);
  double churned_s = std::numeric_limits<double>::infinity();
  double calm_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kScalingReps; ++rep) {
    churned_s = std::min(churned_s, ingest_seconds(churned, opts));
    calm_s = std::min(calm_s, ingest_seconds(calm, opts));
  }
  return (churned_s - calm_s) * 1e6 /
         static_cast<double>(churned.trace.churn_events());
}

}  // namespace

int main() {
  const bench::ObsSession obs_session("serve_steady_state");
  bench::print_header(
      "serve_steady_state", "online daemon throughput at city scale",
      "100k devices, 250 cells, 24k arrivals/s over 4x0.5s epochs, "
      "16 shards, live join/leave/migrate churn");

  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = kCityDevices;
  cfg.scenario.num_base_stations = kCityStations;
  cfg.scenario.seed = 1;
  cfg.epochs = kEpochs;
  cfg.epoch_s = kEpochSeconds;
  cfg.arrival_rate_per_s = kArrivalRatePerS;
  cfg.join_rate_per_s = 10.0;
  cfg.leave_rate_per_s = 10.0;
  cfg.migrate_rate_per_s = 40.0;

  const auto gen0 = std::chrono::steady_clock::now();
  const workload::ServeWorkload w = workload::make_serve_workload(cfg);
  const double generate_s =
      seconds_between(gen0, std::chrono::steady_clock::now());

  serve::ServeOptions opts;
  opts.batching.window_s = kEpochSeconds;
  opts.sharding.num_shards = 16;
  opts.jobs = exec::ThreadPool::default_jobs();

  const auto run0 = std::chrono::steady_clock::now();
  const serve::ServeResult r = serve::ServeDaemon(opts).run(w.universe, w.trace);
  const double run_s = seconds_between(run0, std::chrono::steady_clock::now());

  const double tasks_per_epoch =
      static_cast<double>(r.arrivals) / static_cast<double>(kEpochs);
  const double decisions_per_sec =
      run_s > 0.0 ? static_cast<double>(r.decisions) / run_s : 0.0;
  const obs::Histogram::Snapshot admit =
      obs::Registry::global().window("serve.admit_to_decision_ms").snapshot();
  const obs::Histogram::Snapshot solve =
      obs::Registry::global().window("serve.epoch.solve_ms").snapshot();

  std::cout << "devices:            " << w.universe.num_devices() << '\n'
            << "trace events:       " << r.events << '\n'
            << "tasks/epoch:        " << tasks_per_epoch << '\n'
            << "decisions:          " << r.decisions << '\n'
            << "generate wall:      " << generate_s << " s\n"
            << "serve wall:         " << run_s << " s\n"
            << "decisions/sec:      " << decisions_per_sec << '\n'
            << "admit->decision ms: p50 " << admit.p50 << "  p99 " << admit.p99
            << " (virtual clock)\n"
            << "epoch solve ms:     p50 " << solve.p50 << "  p99 " << solve.p99
            << '\n';

  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("devices",
                      static_cast<double>(w.universe.num_devices()));
  telemetry.set_value("stations",
                      static_cast<double>(w.universe.num_base_stations()));
  telemetry.set_value("tasks_per_epoch", tasks_per_epoch);
  telemetry.set_value("arrivals", static_cast<double>(r.arrivals));
  telemetry.set_value("decisions", static_cast<double>(r.decisions));
  telemetry.set_value("completed", static_cast<double>(r.completed));
  telemetry.set_value("decisions_per_sec", decisions_per_sec);
  telemetry.set_value("serve_wall_s", run_s);
  telemetry.set_value("generate_wall_s", generate_s);
  telemetry.set_value("admit_to_decision_p50_ms", admit.p50);
  telemetry.set_value("admit_to_decision_p99_ms", admit.p99);
  telemetry.set_value("epoch_solve_p50_ms", solve.p50);
  telemetry.set_value("epoch_solve_p99_ms", solve.p99);
  // Churn-scaling arm.
  const double light_us = churn_ingest_us_per_event(kScalingArrivalsPerS, opts);
  const double heavy_us =
      churn_ingest_us_per_event(4.0 * kScalingArrivalsPerS, opts);
  const double ingest_scaling = heavy_us / light_us;
  std::cout << "churn ingest us/ev:  " << light_us << " at "
            << kScalingArrivalsPerS << " arrivals/s, " << heavy_us << " at "
            << 4.0 * kScalingArrivalsPerS << " (x" << ingest_scaling << ")\n";
  telemetry.set_value("churn_ingest_us_per_event_1x", light_us);
  telemetry.set_value("churn_ingest_us_per_event_4x", heavy_us);
  telemetry.set_value("churn_ingest_scaling_4x", ingest_scaling);

  const bool conserved =
      r.arrivals == r.admitted + r.rejected &&
      r.admitted ==
          r.completed + r.expired + r.lost_issuer + r.exhausted + r.abandoned;
  telemetry.set_flag("conserved", conserved);
  telemetry.set_flag("ran_to_completion", !r.stopped_early);

  bench::ShapeChecker check;
  check.expect(w.universe.num_devices() >= kCityDevices,
               "universe holds at least 100k devices");
  check.expect(tasks_per_epoch >= 10000.0,
               "daemon ingests at least 10k tasks per epoch");
  check.expect(r.decisions > 0 && decisions_per_sec > 0.0,
               "the epoch loop places tasks at a positive rate");
  check.expect(conserved && !r.stopped_early,
               "every admitted task reaches exactly one terminal state");
  check.expect(admit.count > 0 && std::isfinite(admit.p99),
               "admission-to-decision p99 observed via serve.* windows");
  check.expect(solve.count > 0 && std::isfinite(solve.p99),
               "epoch solve-time p99 observed via serve.* windows");
  check.expect(std::isfinite(ingest_scaling) && ingest_scaling > 0.0,
               "churn ingest cost measured at both arrival rates");
  return check.exit_code();
}
