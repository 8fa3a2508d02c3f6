// Observability overhead micro-bench — what the always-on instrumentation
// costs while every consumer (trace, flight recorder) is *disabled*, the
// default. Two arms, each timed against the unit of useful work it rides
// on and gated at 2% (the budget docs/observability.md promises):
//
//   * per solve: every instrumented LP solve site pays a relaxed-atomic
//     FlightRecorder::enabled() check plus one observe into its span's
//     rolling `<span>.seconds` histogram through a resolved handle. The
//     work is one small LP-HTA solve (median of kSolveRuns).
//   * per decision: the serve daemon pays one observe into the rolling
//     `serve.admit_to_decision_ms` histogram through a resolved handle per
//     placed task. The work is the CPU time per decision of a small
//     single-worker ServeDaemon replay (median of kReplayRuns).
//
// Emits BENCH_obs_overhead.json (mecsched.bench.v1); CI gates
// values.overhead_fraction and values.per_decision_overhead_fraction via
// tools/bench/trajectory.py.
#include <algorithm>
#include <chrono>
#include <ctime>
#include <iostream>
#include <vector>

#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "bench/bench_common.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "serve/daemon.h"
#include "workload/scenario.h"
#include "workload/serve_trace.h"

namespace {

constexpr std::size_t kTasks = 40;
constexpr int kSolveRuns = 7;
constexpr int kReplayRuns = 5;
constexpr int kBundleIters = 200000;

double now_diff_s(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  const mecsched::bench::ObsSession obs_session("obs_overhead");
  using namespace mecsched;
  bench::print_header(
      "obs overhead", "disabled-mode instrumentation cost per solve and "
                      "per serve decision",
      std::to_string(kTasks) +
          " tasks, 20 devices, 3 stations per solve; serve replay of 2000 "
          "devices, 20 cells, 4x0.5s epochs at 2000 arrivals/s, 1 worker");

  // Per-solve work: one LP-HTA solve on a small cell (one warmup first,
  // so the symbolic caches are steady-state).
  workload::ScenarioConfig cfg;
  cfg.num_devices = 20;
  cfg.num_base_stations = 3;
  cfg.num_tasks = kTasks;
  cfg.seed = 7;
  const workload::Scenario scenario = workload::make_scenario(cfg);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const assign::LpHta solver;
  (void)solver.assign(instance);  // warmup
  std::vector<double> solve_times;
  for (int r = 0; r < kSolveRuns; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)solver.assign(instance);
    solve_times.push_back(now_diff_s(t0, std::chrono::steady_clock::now()));
  }
  const double solve_seconds = median(solve_times);

  // Per-decision work: CPU seconds per placed task of a small replay.
  workload::ServeTraceConfig trace_cfg;
  trace_cfg.scenario.num_devices = 2000;
  trace_cfg.scenario.num_base_stations = 20;
  trace_cfg.scenario.seed = 3;
  trace_cfg.epochs = 4;
  trace_cfg.epoch_s = 0.5;
  trace_cfg.arrival_rate_per_s = 2000.0;
  const workload::ServeWorkload w = workload::make_serve_workload(trace_cfg);
  serve::ServeOptions serve_opts;
  serve_opts.batching.window_s = trace_cfg.epoch_s;
  serve_opts.sharding.num_shards = 4;
  serve_opts.jobs = 1;
  const serve::ServeDaemon daemon(serve_opts);
  (void)daemon.run(w.universe, w.trace);  // warmup
  std::vector<double> decision_times;
  std::size_t decisions = 0;
  for (int r = 0; r < kReplayRuns; ++r) {
    const std::clock_t c0 = std::clock();
    decisions = daemon.run(w.universe, w.trace).decisions;
    const double cpu_s =
        static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
    decision_times.push_back(cpu_s / static_cast<double>(decisions));
  }
  const double decision_seconds = median(decision_times);

  // The instrumentation itself, exactly as the sites pay it: handles are
  // resolved once, the loop pays only the check and the observes.
  obs::Registry& reg = obs::Registry::global();
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  flight.disable();
  obs::Histogram& solve_span = reg.window("lp.simplex.solve.seconds");
  obs::Histogram& admit_ms = reg.window("serve.admit_to_decision_ms");
  std::uint64_t sink = 0;
  const auto b0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBundleIters; ++i) {
    if (flight.enabled()) ++sink;  // never taken; the check is the cost
    solve_span.observe(1e-3);
  }
  const auto b1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBundleIters; ++i) admit_ms.observe(250.0);
  const auto b2 = std::chrono::steady_clock::now();
  const double bundle_seconds = now_diff_s(b0, b1) / kBundleIters;
  const double observe_seconds = now_diff_s(b1, b2) / kBundleIters;
  const double overhead_fraction = bundle_seconds / solve_seconds;
  const double per_decision_overhead_fraction =
      observe_seconds / decision_seconds;

  std::cout.setf(std::ios::fixed);
  std::cout.precision(9);
  std::cout << "solve (median):        " << solve_seconds << " s\n"
            << "bundle (per solve):    " << bundle_seconds << " s\n"
            << "decision (median CPU): " << decision_seconds << " s  ("
            << decisions << " decisions per replay)\n"
            << "observe (per decision):" << observe_seconds << " s\n";
  std::cout.precision(6);
  std::cout << "overhead fraction:     " << overhead_fraction
            << "  (budget 0.02)\n"
            << "per-decision fraction: " << per_decision_overhead_fraction
            << "  (budget 0.02)\n";
  if (sink != 0) std::cout << "sink: " << sink << '\n';  // defeat DCE

  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("solve_seconds", solve_seconds);
  telemetry.set_value("bundle_seconds", bundle_seconds);
  telemetry.set_value("overhead_fraction", overhead_fraction);
  telemetry.set_value("decision_seconds", decision_seconds);
  telemetry.set_value("observe_seconds", observe_seconds);
  telemetry.set_value("per_decision_overhead_fraction",
                      per_decision_overhead_fraction);

  bench::ShapeChecker check;
  check.expect(overhead_fraction <= 0.02,
               "disabled-mode instrumentation costs at most 2% of a small "
               "LP-HTA solve");
  check.expect(decisions > 0 && per_decision_overhead_fraction <= 0.02,
               "the per-decision observe costs at most 2% of a serve "
               "decision's CPU time");
  return check.exit_code();
}
