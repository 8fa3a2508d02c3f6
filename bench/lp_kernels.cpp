// LP kernel microbenchmark on the Fig. 2(a) 200-task cell (50 devices,
// 5 stations, max input 3000 kB).
//
// The solvers ship one kernel each; the dense comparators live in the
// test-only reference library (tests/lp/reference). Three arms:
//
//   - normal equations (ipm_speedup): factor + solve of M = A·D·Aᵀ for the
//     standard form of every per-station cluster LP, over a fixed ladder of
//     Mehrotra-like scalings D. Dense reference: O(m²n) assembly + dense
//     Cholesky. Production: NormalCholesky over the cached symbolic
//     analysis (computed once per LP, as the IPM does, outside the timing).
//   - basis kernel (basis_kernel_speedup): the dense reference inverse vs
//     the eta-file LU over one column-replacement sequence (BasisReplay)
//     on the cell's *monolithic* P2 relaxation — the per-station cluster
//     LPs merged block-diagonally, m in the hundreds. Each step does what
//     a simplex pivot asks of the kernel: FTRAN the entering column, BTRAN
//     the duals, replace the column, refactorize on the solver's schedule.
//   - cluster pivots (cluster_pivots_per_second): simplex pivot throughput
//     on the per-cluster LPs LP-HTA actually solves. The monolithic-LP
//     throughput stays reported as lu_pivots_per_second.
//
// assignments_identical asserts that LP-HTA's plan for the cell does not
// depend on the pricing rule or on repetition; kernels_agree asserts that
// both arms' kernels returned the same solves. Either failing fails the
// bench before any timing is read.
//
// Emits BENCH_lp_kernels.json (override with MECSCHED_BENCH_OUT) in the
// unified mecsched.bench.v1 schema for the CI kernel-bench step, which
// gates it against bench/baselines/lp_kernels.json via
// tools/bench/trajectory.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "assign/cluster_lp.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "bench/bench_common.h"
#include "common/rng.h"
#include "lp/basis_lu.h"
#include "lp/problem.h"
#include "lp/reference/basis_dense.h"
#include "lp/reference/basis_replay.h"
#include "lp/reference/cholesky.h"
#include "lp/reference/matrix.h"
#include "lp/simplex.h"
#include "lp/sparse_cholesky.h"
#include "lp/standard_form.h"
#include "obs/registry.h"
#include "workload/scenario.h"

namespace {

using namespace mecsched;
using assign::Assignment;
using assign::HtaInstance;

constexpr std::size_t kTasks = 200;
constexpr int kTimedRuns = 5;
// Normal-equation scalings per LP: about one Mehrotra run's iterations.
constexpr std::size_t kScalings = 20;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best of kTimedRuns after one discarded warm-up run.
template <class Fn>
double best_of(Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < kTimedRuns; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

bool close(const std::vector<double>& a, const std::vector<double>& b,
           double rel) {
  if (a.size() != b.size()) return false;
  double scale = 1.0;
  for (const double v : b) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(std::fabs(a[i] - b[i]) <= rel * scale)) return false;
  }
  return true;
}

// ---- Arm 1: normal equations -------------------------------------------

struct NormalSystem {
  lp::StandardForm sf;
  lp::SparseMatrix at;
  std::shared_ptr<const lp::NormalEquationsSymbolic> sym;
  lp::Matrix a_dense;
  std::vector<std::vector<double>> scalings;
  std::vector<double> rhs;
};

// Decades of x/s spread at scaling k: from 1 (the starting point) out to
// 12 decades either way, as when the iterates approach a vertex.
double spread_of(std::size_t k) {
  return 12.0 * static_cast<double>(k) / static_cast<double>(kScalings - 1);
}

NormalSystem make_normal_system(const lp::Problem& p, std::uint64_t seed) {
  NormalSystem ns;
  ns.sf = lp::to_standard_form(p);
  ns.at = ns.sf.a.transposed();
  ns.sym = std::make_shared<const lp::NormalEquationsSymbolic>(ns.sf.a);
  ns.a_dense = lp::to_dense(ns.sf.a);
  Rng rng(seed);
  for (std::size_t k = 0; k < kScalings; ++k) {
    const double spread = spread_of(k);
    std::vector<double> d(ns.sf.a.cols());
    for (double& v : d) v = std::pow(10.0, rng.uniform(-spread, spread));
    ns.scalings.push_back(std::move(d));
  }
  ns.rhs.resize(ns.sf.a.rows());
  for (double& v : ns.rhs) v = rng.uniform(-1.0, 1.0);
  return ns;
}

std::vector<double> solve_sparse(const NormalSystem& ns,
                                 const std::vector<double>& d) {
  return lp::NormalCholesky(ns.sf.a, ns.at, d, ns.sym).solve(ns.rhs);
}

std::vector<double> solve_dense(const NormalSystem& ns,
                                const std::vector<double>& d) {
  return lp::Cholesky(lp::normal_matrix(ns.a_dense, d)).solve(ns.rhs);
}

// ---- Arm 2: basis kernels ------------------------------------------------

// The refactorization schedule both kernels follow: the simplex default.
const std::size_t kRefactorPeriod = lp::SimplexOptions{}.refactor_period;

std::vector<double> dual_probe(std::size_t m) {
  std::vector<double> y(m);
  for (std::size_t r = 0; r < m; ++r) {
    y[r] = 1.0 + 0.125 * static_cast<double>(r % 9);
  }
  return y;
}

// Replays `rp` on the eta-file LU; returns the final basis' FTRAN of the
// dual probe (the agreement witness).
std::vector<double> replay_lu(const lp::BasisReplay& rp) {
  const std::size_t m = rp.m;
  std::vector<std::size_t> basis = rp.initial_basis();
  lp::BasisLu lu;
  lu.limits().max_etas = kRefactorPeriod;
  const auto refactor = [&] {
    const lp::BasisReplay::Csc b = rp.gather(basis);
    lu.factorize(m, b.ptr.data(), b.rows.data(), b.vals.data());
  };
  refactor();
  const std::vector<double> probe = dual_probe(m);
  std::vector<double> w(m), y(m);
  for (const lp::BasisReplay::Step& st : rp.steps) {
    if (lu.needs_refactor()) refactor();
    y = probe;
    lu.btran(y.data());
    rp.scatter(st.entering, w.data());
    lu.ftran(w.data());
    basis[st.row] = st.entering;
    if (!lu.push_eta(w.data(), st.row, m)) refactor();
  }
  y = probe;
  lu.ftran(y.data());
  return y;
}

// The same replay on the dense reference inverse: rank-1 updates, rebuilt
// every kRefactorPeriod pivots.
std::vector<double> replay_dense(const lp::BasisReplay& rp) {
  const std::size_t m = rp.m;
  std::vector<std::size_t> basis = rp.initial_basis();
  lp::BasisDense dense;
  const auto refactor = [&] {
    const lp::BasisReplay::Csc b = rp.gather(basis);
    dense.factorize(m, b.ptr.data(), b.rows.data(), b.vals.data());
  };
  refactor();
  const std::vector<double> probe = dual_probe(m);
  std::vector<double> w(m), y(m);
  for (std::size_t k = 0; k < rp.steps.size(); ++k) {
    const lp::BasisReplay::Step st = rp.steps[k];
    y = probe;
    dense.btran(y.data());
    rp.scatter(st.entering, w.data());
    dense.ftran(w.data());
    basis[st.row] = st.entering;
    if ((k + 1) % kRefactorPeriod == 0) {
      refactor();
    } else {
      dense.update(w.data(), st.row);
    }
  }
  y = probe;
  dense.ftran(y.data());
  return y;
}

// The cell's monolithic P2 relaxation: every per-station cluster LP of
// build_cluster_lp merged block-diagonally (disjoint variables, disjoint
// rows) into one problem. Same optimum as the sum of the cluster solves.
lp::Problem build_cell_lp(const HtaInstance& instance, std::size_t stations) {
  lp::Problem mono;
  for (std::size_t b = 0; b < stations; ++b) {
    const auto cluster = assign::build_cluster_lp(instance, b);
    const lp::Problem& p = cluster.problem;
    std::vector<std::size_t> map(p.num_variables());
    for (std::size_t v = 0; v < p.num_variables(); ++v) {
      map[v] = mono.add_variable(p.cost(v), p.lower(v), p.upper(v));
    }
    for (std::size_t r = 0; r < p.num_constraints(); ++r) {
      const auto& con = p.constraint(r);
      std::vector<lp::Term> terms;
      terms.reserve(con.terms.size());
      for (const auto& t : con.terms) terms.push_back({map[t.var], t.coeff});
      mono.add_constraint(std::move(terms), con.relation, con.rhs);
    }
  }
  return mono;
}

// ---- Arm 3: simplex pivot throughput --------------------------------------

struct Pivots {
  double seconds = 0.0;
  double pivots = 0.0;
  bool optimal = true;
};

Pivots time_simplex(const std::vector<lp::Problem>& problems) {
  const lp::SimplexSolver solver;
  Pivots out;
  out.seconds = best_of([&] {
    out.pivots = 0.0;
    for (const lp::Problem& p : problems) {
      const lp::Solution s = solver.solve(p);
      out.optimal = out.optimal && s.optimal();
      out.pivots += static_cast<double>(s.iterations);
    }
  });
  return out;
}

}  // namespace

int main() {
  const bench::ObsSession obs_session("lp_kernels");
  bench::print_header(
      "LP kernels", "production sparse kernels vs the dense references",
      "Fig. 2(a) cell: 200 tasks, max input 3000 kB, 50 devices, 5 stations");

  workload::ScenarioConfig cfg;
  cfg.num_devices = bench::kDevices;
  cfg.num_base_stations = bench::kStations;
  cfg.num_tasks = kTasks;
  cfg.max_input_kb = 3000.0;
  cfg.seed = 1200;  // matches fig2a's rep-1 cell at x=200
  const workload::Scenario scenario = workload::make_scenario(cfg);
  const HtaInstance instance(scenario.topology, scenario.tasks);

  std::vector<lp::Problem> clusters;
  for (std::size_t b = 0; b < bench::kStations; ++b) {
    clusters.push_back(assign::build_cluster_lp(instance, b).problem);
  }

  // Arm 1: normal equations, summed over the cluster LPs.
  std::vector<NormalSystem> systems;
  for (std::size_t b = 0; b < clusters.size(); ++b) {
    systems.push_back(make_normal_system(clusters[b], 17 + b));
  }
  // Every solve must be backward stable; where D is still within two
  // decades of 1 and M well conditioned, the two answers must also agree.
  bool normal_agree = true;
  for (const NormalSystem& ns : systems) {
    for (std::size_t k = 0; k < kScalings; ++k) {
      const std::vector<double>& d = ns.scalings[k];
      const lp::Matrix m = lp::normal_matrix(ns.a_dense, d);
      const std::vector<double> sparse = solve_sparse(ns, d);
      const std::vector<double> dense = solve_dense(ns, d);
      normal_agree = normal_agree &&
                     lp::backward_error(m, sparse, ns.rhs) <= 1e-12 &&
                     lp::backward_error(m, dense, ns.rhs) <= 1e-12 &&
                     (spread_of(k) > 2.0 || close(sparse, dense, 1e-6));
    }
  }
  const auto run_normal = [&](auto solve) {
    return best_of([&] {
      for (const NormalSystem& ns : systems) {
        for (const std::vector<double>& d : ns.scalings) solve(ns, d);
      }
    });
  };
  const double normal_dense_s = run_normal(solve_dense);
  const double normal_sparse_s = run_normal(solve_sparse);
  const double ipm_speedup = normal_dense_s / normal_sparse_s;

  // Arm 2: basis kernels on the monolithic cell LP.
  const lp::Problem cell_lp = build_cell_lp(instance, bench::kStations);
  const lp::BasisReplay replay =
      lp::make_basis_replay(cell_lp, 2 * cell_lp.num_constraints(), 1200);
  const bool basis_agree = close(replay_lu(replay), replay_dense(replay), 1e-7);
  const double basis_dense_s = best_of([&] { replay_dense(replay); });
  const double basis_lu_s = best_of([&] { replay_lu(replay); });
  const double basis_speedup = basis_dense_s / basis_lu_s;

  // Arm 3: pivot throughput, per-cluster LPs and the monolithic LP.
  const Pivots cluster = time_simplex(clusters);
  const Pivots cell = time_simplex({cell_lp});
  const double cluster_pivots_per_second = cluster.pivots / cluster.seconds;
  const double lu_pivots_per_second = cell.pivots / cell.seconds;

  // LP-HTA's plan must not depend on the pricing rule or on repetition.
  const Assignment plan = assign::LpHta().assign(instance);
  bool assignments_identical = plan.decisions ==
                               assign::LpHta().assign(instance).decisions;
  for (const lp::PricingRule rule :
       {lp::PricingRule::kDevex, lp::PricingRule::kSteepestEdge}) {
    assign::LpHtaOptions options;
    options.pricing = rule;
    assignments_identical =
        assignments_identical &&
        assign::LpHta(options).assign(instance).decisions == plan.decisions;
  }
  const bool kernels_agree = normal_agree && basis_agree && cluster.optimal &&
                             cell.optimal;

  std::cout.setf(std::ios::fixed);
  std::cout.precision(6);
  std::cout << "arm                            dense (s)   sparse/LU (s)   "
               "speedup\n"
            << "normal equations (clusters)    " << normal_dense_s << "    "
            << normal_sparse_s << "        " << ipm_speedup << "x\n"
            << "basis kernel (cell LP replay)  " << basis_dense_s << "    "
            << basis_lu_s << "        " << basis_speedup << "x\n";
  std::cout << "cell LP: " << cell_lp.num_variables() << " vars, "
            << cell_lp.num_constraints() << " rows; replay of "
            << replay.steps.size() << " column replacements\n";
  std::cout.precision(0);
  std::cout << "simplex pivots/s: " << cluster_pivots_per_second
            << " on the cluster LPs (" << cluster.pivots << " pivots), "
            << lu_pivots_per_second << " on the cell LP (" << cell.pivots
            << " pivots)\n";
  std::cout.precision(6);

  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("tasks", static_cast<double>(kTasks));
  telemetry.set_value("timed_runs", static_cast<double>(kTimedRuns));
  telemetry.set_value("normal_dense_seconds", normal_dense_s);
  telemetry.set_value("normal_sparse_seconds", normal_sparse_s);
  telemetry.set_value("ipm_speedup", ipm_speedup);
  telemetry.set_value("replay_steps", static_cast<double>(replay.steps.size()));
  telemetry.set_value("basis_dense_seconds", basis_dense_s);
  telemetry.set_value("basis_lu_seconds", basis_lu_s);
  telemetry.set_value("basis_kernel_speedup", basis_speedup);
  telemetry.set_value("cluster_seconds", cluster.seconds);
  telemetry.set_value("cluster_pivots", cluster.pivots);
  telemetry.set_value("cluster_pivots_per_second", cluster_pivots_per_second);
  telemetry.set_value("cell_lu_seconds", cell.seconds);
  telemetry.set_value("cell_pivots", cell.pivots);
  telemetry.set_value("lu_pivots_per_second", lu_pivots_per_second);
  telemetry.set_flag("assignments_identical", assignments_identical);
  telemetry.set_flag("kernels_agree", kernels_agree);

  bench::ShapeChecker check;
  check.expect(assignments_identical,
               "LP-HTA's plan is the same under every pricing rule");
  check.expect(normal_agree,
               "sparse and dense normal-equation solves agree");
  check.expect(basis_agree,
               "eta-LU and dense-inverse replays end on the same basis solve");
  check.expect(cluster.optimal && cell.optimal,
               "every timed simplex solve is optimal");
  check.expect(ipm_speedup >= 3.0,
               "sparse normal equations are at least 3x faster than dense "
               "on the 200-task cell");
  check.expect(basis_speedup >= 2.0,
               "eta-LU basis kernel is at least 2x faster than the dense "
               "inverse on the cell LP");
  return check.exit_code();
}
