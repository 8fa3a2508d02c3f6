// paper_sweep: the paper's Sec. V scale (50 devices, 5 stations) as one
// closed-loop batch over exec::SweepRunner — the Fig. 2(a) HTA grid
// (LP-HTA, HGOS, AllToC and AllOffload per cell) followed by the Fig. 5(a)
// DTA grid (DTA-Workload, DTA-Number and holistic LP-HTA per cell).
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "assign/baselines.h"
#include "assign/evaluator.h"
#include "assign/hgos.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "audit/assignment_audit.h"
#include "audit/audit.h"
#include "audit/division_audit.h"
#include "cli/sweep_grids.h"
#include "dta/pipeline.h"
#include "exec/sweep_runner.h"
#include "layers.h"
#include "spans.h"
#include "workload/scenario.h"
#include "workload/shared_data.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mecsched;

// Scenarios per grid point, each from its own seed, the same in both grids
// as in the figures' runs (bench/bench_common.h: 3 per point). Four times
// the figures' count, so one seed's draw moves a sweep's work less.
constexpr std::uint64_t kReps = 12;
// A sweep takes under a second, so the process warms up for a while
// before the timed region.
constexpr double kWarmUpS = 1.0;
constexpr std::size_t kHtaAlgorithms = 4;  // LP-HTA, HGOS, AllToC, AllOffload
constexpr std::size_t kDtaSeries = 3;      // DTA-Workload, DTA-Number, LP-HTA

struct Inputs {
  std::vector<workload::Scenario> hta;
  std::vector<dta::SharedDataScenario> dta;
  std::size_t hta_tasks = 0;
  std::size_t dta_tasks = 0;
};

// Fig. 2(a)'s grid as `mecsched sweep --grid fig2a` builds it; Fig. 5(a)
// sweeps the same task counts at the same scale and seeds over shared-data
// scenarios, with fig5a's item universe.
Inputs make_inputs(std::uint64_t seed) {
  const cli::SweepGrid& grid = *cli::find_sweep_grid("fig2a");
  Inputs in;
  for (const double x : grid.xs) {
    for (std::uint64_t rep = 1; rep <= kReps; ++rep) {
      const workload::ScenarioConfig cfg =
          grid.config_at(x, seed * kReps + rep);
      in.hta.push_back(spanned("perfbench.make_scenario",
                               [&] { return workload::make_scenario(cfg); }));
      in.hta_tasks += cfg.num_tasks;

      workload::SharedDataConfig shared;
      shared.num_devices = cfg.num_devices;
      shared.num_base_stations = cfg.num_base_stations;
      shared.num_tasks = cfg.num_tasks;
      shared.max_input_kb = cfg.max_input_kb;
      shared.seed = cfg.seed;
      shared.num_items = 600;
      shared.max_extra_owners = 5;
      in.dta.push_back(spanned("perfbench.make_shared_scenario", [&] {
        return workload::make_shared_scenario(shared);
      }));
      in.dta_tasks += shared.num_tasks;
    }
  }
  return in;
}

// Runs `call` and sets `cpu_s` to the CPU time it took on this thread.
template <typename Call>
auto cpu_timed(double& cpu_s, Call&& call) {
  const double c0 = thread_cpu_seconds();
  auto result = call();
  cpu_s = thread_cpu_seconds() - c0;
  return result;
}

struct HtaCell {
  std::array<assign::Assignment, kHtaAlgorithms> plans;
  std::array<assign::Metrics, kHtaAlgorithms> metrics;
  std::array<double, kHtaAlgorithms> cpu_s{};  // each algorithm's call
  assign::LpHtaReport lp_report;
};

struct DtaCell {
  dta::DtaResult workload;
  dta::DtaResult number;
  assign::Assignment holistic;
  double holistic_energy_j = 0.0;
  std::array<double, kDtaSeries> cpu_s{};  // each series' call
};

struct Sweep {
  std::vector<HtaCell> hta;
  std::vector<DtaCell> dta;
  double hta_wall_s = 0.0;
  double dta_wall_s = 0.0;
  double cpu_s = 0.0;  // both grids, every thread together
};

Sweep run_sweep(const Inputs& in, std::size_t jobs) {
  const assign::LpHta lp_hta;
  const assign::Hgos hgos;
  const assign::AllToCloud all_to_cloud;
  const assign::AllOffload all_offload;
  exec::SweepOptions opts;
  opts.jobs = jobs;
  Sweep out;
  const double c0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  out.hta = spanned("perfbench.sweep_hta", [&] {
    return exec::SweepRunner(opts).run<HtaCell>(
        in.hta.size(), [&](exec::CellContext& ctx) {
          const workload::Scenario& sc = in.hta[ctx.index()];
          const assign::HtaInstance inst = spanned(
              "perfbench.hta_instance",
              [&] { return assign::HtaInstance(sc.topology, sc.tasks); });
          HtaCell cell;
          cell.plans[0] = cpu_timed(cell.cpu_s[0], [&] {
            return spanned("perfbench.lp_hta", [&] {
              return lp_hta.assign_with_report(inst, cell.lp_report);
            });
          });
          cell.plans[1] = cpu_timed(cell.cpu_s[1], [&] {
            return spanned("perfbench.hgos", [&] { return hgos.assign(inst); });
          });
          cell.plans[2] = cpu_timed(cell.cpu_s[2], [&] {
            return spanned("perfbench.alltoc",
                           [&] { return all_to_cloud.assign(inst); });
          });
          cell.plans[3] = cpu_timed(cell.cpu_s[3], [&] {
            return spanned("perfbench.alloffload",
                           [&] { return all_offload.assign(inst); });
          });
          for (std::size_t a = 0; a < kHtaAlgorithms; ++a) {
            cell.metrics[a] = assign::evaluate(inst, cell.plans[a]);
          }
          return cell;
        });
  });
  out.hta_wall_s = seconds_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  out.dta = spanned("perfbench.sweep_dta", [&] {
    return exec::SweepRunner(opts).run<DtaCell>(
        in.dta.size(), [&](exec::CellContext& ctx) {
          const dta::SharedDataScenario& sc = in.dta[ctx.index()];
          DtaCell cell;
          dta::DtaOptions dopts;
          dopts.scheduler = dta::PartialScheduler::kLocalGreedy;
          dopts.strategy = dta::DtaStrategy::kWorkload;
          cell.workload = cpu_timed(cell.cpu_s[0], [&] {
            return spanned("perfbench.dta_workload",
                           [&] { return dta::run_dta(sc, dopts); });
          });
          dopts.strategy = dta::DtaStrategy::kNumber;
          cell.number = cpu_timed(cell.cpu_s[1], [&] {
            return spanned("perfbench.dta_number",
                           [&] { return dta::run_dta(sc, dopts); });
          });
          const double c0 = thread_cpu_seconds();
          spanned("perfbench.holistic_lp_hta", [&] {
            const assign::HtaInstance inst(sc.topology,
                                           dta::to_holistic_tasks(sc));
            cell.holistic = lp_hta.assign(inst);
            cell.cpu_s[2] = thread_cpu_seconds() - c0;
            cell.holistic_energy_j =
                assign::evaluate(inst, cell.holistic).total_energy_j;
          });
          return cell;
        });
  });
  out.dta_wall_s = seconds_since(t1);
  out.cpu_s = process_cpu_seconds() - c0;
  return out;
}

// Every figure number a sweep produces, in grid order: a deterministic
// program gives identical lists across repeats and job counts.
std::vector<double> figure_numbers(const Sweep& s) {
  std::vector<double> out;
  for (const HtaCell& c : s.hta) {
    for (const assign::Metrics& m : c.metrics) {
      out.push_back(m.total_energy_j);
      out.push_back(static_cast<double>(m.cancelled));
    }
  }
  for (const DtaCell& c : s.dta) {
    out.push_back(c.workload.total_energy_j);
    out.push_back(c.number.total_energy_j);
    out.push_back(c.holistic_energy_j);
  }
  return out;
}

struct Totals {
  double lp_hta_energy = 0.0;
  double hgos_energy = 0.0;
  double dta_workload_energy = 0.0;
  double holistic_energy = 0.0;
  std::size_t lp_hta_placed = 0;
  std::size_t lp_hta_unsatisfied = 0;
  std::size_t cancelled_capacity = 0;
  std::size_t cancelled_infeasible = 0;
};

Totals totals(const Sweep& s) {
  Totals t;
  for (const HtaCell& c : s.hta) {
    const assign::Metrics& lp = c.metrics[0];
    t.lp_hta_energy += lp.total_energy_j;
    t.hgos_energy += c.metrics[1].total_energy_j;
    t.lp_hta_placed += lp.num_tasks - lp.cancelled;
    t.lp_hta_unsatisfied += lp.cancelled + lp.deadline_violations;
    t.cancelled_capacity += c.lp_report.cancelled_capacity;
    t.cancelled_infeasible += c.lp_report.cancelled_infeasible;
  }
  for (const DtaCell& c : s.dta) {
    t.dta_workload_energy += c.workload.total_energy_j;
    t.holistic_energy += c.holistic_energy_j;
  }
  return t;
}

// C1-C3 on every HTA plan under each algorithm's contract, the division
// contract on every DTA result, and the paper's two shapes. Returns the
// number of audit violations.
std::size_t check_sweep(const Inputs& in, const Sweep& s, Report& rep) {
  const audit::ScopedLevel full(audit::Level::kFull);
  static constexpr std::array<const char*, kHtaAlgorithms> kNames = {
      "LP-HTA", "HGOS", "AllToC", "AllOffload"};
  std::size_t violations = 0;
  const auto audited = [&](const auto& check) {
    try {
      check();
    } catch (const audit::AuditError& e) {
      if (violations++ == 0) std::cout << "audit: " << e.what() << '\n';
    }
  };
  for (std::size_t i = 0; i < s.hta.size(); ++i) {
    const assign::HtaInstance inst(in.hta[i].topology, in.hta[i].tasks);
    for (std::size_t a = 0; a < kHtaAlgorithms; ++a) {
      // Only LP-HTA promises deadlines; the others' misses are the
      // measured unsatisfied rate.
      const audit::AssignmentContract contract{a == 0, true};
      audited([&] {
        audit::check_assignment(inst, s.hta[i].plans[a], contract, kNames[a]);
      });
    }
  }
  for (std::size_t i = 0; i < s.dta.size(); ++i) {
    const DtaCell& c = s.dta[i];
    audited([&] {
      audit::check_division(in.dta[i], c.workload.coverage,
                            c.workload.rearranged, "dta-workload");
    });
    audited([&] {
      audit::check_division(in.dta[i], c.number.coverage,
                            c.number.rearranged, "dta-number");
    });
    const assign::HtaInstance inst(in.dta[i].topology,
                                   dta::to_holistic_tasks(in.dta[i]));
    audited([&] {
      audit::check_assignment(inst, c.holistic, {true, true}, "LP-HTA");
    });
  }
  rep.check(violations == 0,
            std::to_string(violations) + " audit violations in the sweep");

  const Totals t = totals(s);
  rep.check(t.lp_hta_energy <= t.hgos_energy,
            "Fig. 2(a) shape: LP-HTA energy at or below HGOS");
  rep.check(t.dta_workload_energy < t.holistic_energy,
            "Fig. 5(a) shape: DTA-Workload energy below holistic LP-HTA");
  return violations;
}

void quality_metrics(const Inputs& in, const Sweep& s, Report& rep) {
  const Totals t = totals(s);
  const double tasks = static_cast<double>(in.hta_tasks);
  rep.metrics["energy_per_decision_j"] =
      t.lp_hta_energy / static_cast<double>(t.lp_hta_placed);
  rep.metrics["unplaced_share"] =
      static_cast<double>(t.lp_hta_unsatisfied) / tasks;
  rep.metrics["paper.unsatisfied_rate"] = rep.metrics["unplaced_share"];
  rep.metrics["paper.lp_hta_vs_hgos_energy"] = t.lp_hta_energy / t.hgos_energy;
  rep.metrics["paper.dta_vs_holistic_energy"] =
      t.dta_workload_energy / t.holistic_energy;
  rep.metrics["fail.attempted"] = tasks;
  rep.metrics["fail.cancelled_capacity"] =
      static_cast<double>(t.cancelled_capacity);
  rep.metrics["fail.cancelled_infeasible"] =
      static_cast<double>(t.cancelled_infeasible);
  std::cout << "LP-HTA tasks " << in.hta_tasks << ", unsatisfied "
            << t.lp_hta_unsatisfied << " (cancelled_capacity "
            << t.cancelled_capacity << ", cancelled_infeasible "
            << t.cancelled_infeasible << "); LP-HTA/HGOS energy "
            << rep.metrics["paper.lp_hta_vs_hgos_energy"]
            << ", DTA-Workload/holistic energy "
            << rep.metrics["paper.dta_vs_holistic_energy"] << '\n';
}

// Decisions: one per task per algorithm (or DTA series).
double decisions(const Inputs& in) {
  return static_cast<double>(in.hta_tasks * kHtaAlgorithms +
                             in.dta_tasks * kDtaSeries);
}

// Decision latency: a cell's tasks are admitted when an algorithm (or DTA
// series) starts on the cell and decided when it returns, so each of the
// decisions decisions_per_cpu_s counts takes that call's CPU time on its
// worker thread. Returns the q-quantiles, in ms.
std::vector<double> latency_quantiles_ms(const Inputs& in, const Sweep& s,
                                         const std::vector<double>& qs) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(decisions(in)));
  for (std::size_t i = 0; i < s.hta.size(); ++i) {
    for (const double cpu_s : s.hta[i].cpu_s) {
      ms.insert(ms.end(), in.hta[i].tasks.size(), cpu_s * 1e3);
    }
  }
  for (std::size_t i = 0; i < s.dta.size(); ++i) {
    for (const double cpu_s : s.dta[i].cpu_s) {
      ms.insert(ms.end(), in.dta[i].tasks.size(), cpu_s * 1e3);
    }
  }
  std::vector<double> out;
  for (const double q : qs) out.push_back(quantile(ms, q));
  return out;
}

}  // namespace

Report run_paper_sweep(const RunConfig& rc) {
  Report rep;
  const Inputs in = make_inputs(rc.seed);
  rep.metrics["exec.jobs"] = static_cast<double>(rc.jobs);

  // Warm-up, untimed: the first sweeps of a process run slower than the
  // rest. The first is the reference every later sweep must reproduce,
  // and its registry counts size the tracer ring.
  reset_registry();
  const Sweep reference = run_sweep(in, rc.jobs);
  const std::size_t spans = spans_in_last_pass();
  // Peak memory of set-up plus one sweep; later sweeps only re-use the heap.
  rep.metrics["peak_rss_mib"] = peak_rss_mib();
  const std::vector<double> expected = figure_numbers(reference);
  rep.attempted = in.hta_tasks;
  rep.failed = check_sweep(in, reference, rep);
  for (const auto t0 = std::chrono::steady_clock::now();
       seconds_since(t0) < kWarmUpS;) {
    run_sweep(in, rc.jobs);
  }

  // Timed region: whole sweeps until the run's seconds are spent, each
  // followed by one timed generation of the inputs, so set-up samples span
  // the run as the sweeps do and the machine's drift over it moves both
  // alike. Throughput and set-up are taken on the
  // CPU clock, which a busy host moves far less than the wall clock.
  std::vector<double> setup;
  std::vector<double> rates;
  std::vector<double> wall_rates;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::vector<double> hta_walls;
  std::vector<double> dta_walls;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const Sweep s = run_sweep(in, rc.jobs);
    hta_walls.push_back(s.hta_wall_s);
    dta_walls.push_back(s.dta_wall_s);
    rates.push_back(decisions(in) / s.cpu_s);
    wall_rates.push_back(decisions(in) / (s.hta_wall_s + s.dta_wall_s));
    const std::vector<double> q = latency_quantiles_ms(in, s, {0.5, 0.99});
    p50_ms.push_back(q[0]);
    p99_ms.push_back(q[1]);
    rep.check(figure_numbers(s) == expected,
              "timed sweep " + std::to_string(rates.size()) +
                  " matches the warm-up sweep");
    const double c0 = process_cpu_seconds();
    const Inputs again = make_inputs(rc.seed);
    setup.push_back(process_cpu_seconds() - c0);
    rep.check(again.hta_tasks == in.hta_tasks &&
                  again.dta_tasks == in.dta_tasks,
              "the same seed generates the same grids");
  } while (seconds_since(t0) < rc.seconds);
  rep.metrics["setup_s"] = median(setup);
  rep.metrics["decisions_per_cpu_s"] = median(rates);
  rep.metrics["wall.decisions_per_s"] = median(wall_rates);
  rep.metrics["admit_to_decision_p50_ms"] = median(p50_ms);
  rep.metrics["admit_to_decision_p99_ms"] = median(p99_ms);
  rep.metrics["paper.hta_cells_per_s"] =
      static_cast<double>(in.hta.size()) / median(hta_walls);
  rep.metrics["paper.dta_cells_per_s"] =
      static_cast<double>(in.dta.size()) / median(dta_walls);
  std::cout << "sweeps " << rates.size() << ", median wall s "
            << median(hta_walls) << " (HTA) + " << median(dta_walls)
            << " (DTA)\n";

  quality_metrics(in, reference, rep);
  if (!rc.trace) return rep;

  // The traced pass's extra references: a jobs=1 sweep for the parallel
  // efficiency, and the traced sweep itself; both must match.
  const Sweep serial = run_sweep(in, 1);
  rep.check(figure_numbers(serial) == expected,
            "jobs=1 sweep matches jobs=" + std::to_string(rc.jobs));
  const double wall = median(hta_walls) + median(dta_walls);
  rep.metrics["exec.parallel_efficiency"] =
      (serial.hta_wall_s + serial.dta_wall_s) / wall /
      static_cast<double>(rc.jobs);

  reset_registry();
  start_tracing(spans);
  Sweep traced;
  {
    const obs::ScopedTimer pass("perfbench.pass", "perfbench");
    make_inputs(rc.seed);
    traced = run_sweep(in, rc.jobs);
  }
  finish_tracing(rc, rep);
  read_registry_layers(rep);
  rep.check(figure_numbers(traced) == expected,
            "traced sweep matches the untraced sweeps");
  rep.metrics["obs.tracing_overhead"] =
      (traced.hta_wall_s + traced.dta_wall_s) / wall - 1.0;
  write_layers_json(rc.out_dir, rep);
  return rep;
}

}  // namespace perfbench
