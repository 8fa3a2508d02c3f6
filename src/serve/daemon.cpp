#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "assign/hta_instance.h"
#include "common/error.h"
#include "dta/pipeline.h"
#include "exec/thread_pool.h"
#include "mec/cost_model.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "serve/population.h"
#include "serve/reconciler.h"

namespace mecsched::serve {
namespace {

using assign::Decision;
using control::ReadmissionEntry;

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// What one shard solve hands back to the epoch loop.
struct ShardOutcome {
  assign::Assignment plan;
  control::FallbackRung rung = control::FallbackRung::kLpHta;
  // Chosen-placement costs per shard task (0 for cancelled entries).
  std::vector<double> latency_s;
  std::vector<double> energy_j;
};

// Cost of running `task` (universe ids) on its issuer inside the issuer's
// cell, radios priced at their current link factors. Local execution
// reads only the issuer, the external owner and the cell they share, so a
// two-device topology prices it exactly.
mec::CostEntry local_cost_now(const mec::Topology& universe,
                              const Population& pop, mec::Task task) {
  std::vector<std::size_t> roster = {task.id.user};
  if (task.external_bytes > 0.0 && task.external_owner != task.id.user) {
    roster.push_back(task.external_owner);
  }
  std::vector<mec::Device> devices;
  for (std::size_t local = 0; local < roster.size(); ++local) {
    mec::Device d = universe.device(roster[local]);
    d.id = local;
    d.base_station = 0;
    d.radio.upload_bps *= pop.link_factor(roster[local]);
    d.radio.download_bps *= pop.link_factor(roster[local]);
    devices.push_back(d);
  }
  mec::BaseStation cell = universe.base_station(pop.station(task.id.user));
  cell.id = 0;
  const mec::Topology pair(std::move(devices), {cell}, universe.params());
  task.id.user = 0;
  task.external_owner = roster.size() - 1;
  return mec::CostModel(pair).evaluate(task, mec::Placement::kLocal);
}

// DTA rescue of an owner-down task: re-divides its items across the
// owners up now. Empty when an item has no live copy or the re-division
// cancels a partial or misses the residual deadline.
std::optional<dta::DtaResult> rescue(const mec::Topology& universe,
                                     const Population& pop,
                                     const SharedDataView& shared,
                                     const dta::ItemSet& items,
                                     const mec::Task& task,
                                     double residual_s) {
  if (items.empty()) return std::nullopt;
  std::vector<dta::ItemSet> alive(shared.ownership.size());
  dta::ItemSet covered;
  for (std::size_t dev = 0; dev < alive.size(); ++dev) {
    if (!pop.up(dev)) continue;
    alive[dev] = shared.ownership[dev];
    covered = dta::set_union(covered, alive[dev]);
  }
  if (!dta::set_minus(items, covered).empty()) return std::nullopt;

  dta::DivisibleTask div;
  div.id = task.id;
  div.items = items;
  div.cycles_per_byte = task.cycles_per_byte;
  div.result_kind = task.result_kind;
  div.result_ratio = task.result_ratio;
  div.result_const_bytes = task.result_const_bytes;
  div.resource = task.resource;
  div.deadline_s = residual_s;
  const dta::SharedDataScenario scenario{
      universe, dta::DataUniverse(shared.item_bytes), std::move(alive),
      {div}};
  dta::DtaOptions opts;
  opts.strategy = dta::DtaStrategy::kWorkload;
  opts.scheduler = dta::PartialScheduler::kLocalGreedy;
  dta::DtaResult r = dta::run_dta(scenario, opts);
  if (r.partials_cancelled > 0 || r.partials_deadline_violations > 0 ||
      r.processing_time_s > residual_s) {
    return std::nullopt;
  }
  return r;
}

// The daemon's record of one arrival; its id is the arrival ordinal. The
// trace owns the task, so a record is two words however many arrivals a
// run admits.
struct Arrival {
  const Event* event = nullptr;  // the trace's kTaskArrival
  std::size_t attempts = 0;      // admissions consumed so far

  const mec::Task& task() const { return event->task; }
  double arrival_s() const { return event->time_s; }
};

// Residual capacity at `now` of every station and of each device the
// batch touches (issuers and external owners): the universe capacity less
// what running work holds, summed in start order.
ResidualCapacity residual_at(const mec::Topology& universe,
                             const Reconciler& recon,
                             const std::vector<PendingTask>& batch,
                             double now) {
  ResidualCapacity out;
  for (const PendingTask& p : batch) {
    out.device_ids.push_back(p.task.id.user);
    if (p.task.external_bytes > 0.0) {
      out.device_ids.push_back(p.task.external_owner);
    }
  }
  std::sort(out.device_ids.begin(), out.device_ids.end());
  out.device_ids.erase(
      std::unique(out.device_ids.begin(), out.device_ids.end()),
      out.device_ids.end());
  out.device.reserve(out.device_ids.size());
  for (const std::size_t g : out.device_ids) {
    out.device.push_back(universe.device(g).max_resource -
                         recon.device_used(g, now));
  }
  out.station.reserve(universe.num_base_stations());
  for (std::size_t b = 0; b < universe.num_base_stations(); ++b) {
    out.station.push_back(universe.base_station(b).max_resource -
                          recon.station_used(b, now));
  }
  return out;
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options) : options_(std::move(options)) {}

ServeResult ServeDaemon::run(const mec::Topology& universe, const Trace& trace,
                             DecisionLog* log, const CancellationToken& stop,
                             const SharedDataView* shared,
                             std::vector<TaskOutcome>* outcomes) const {
  MECSCHED_REQUIRE(std::isfinite(options_.epoch_budget_ms) &&
                       options_.epoch_budget_ms >= 0.0,
                   "epoch_budget_ms must be finite and non-negative");
  trace.validate_against(universe.num_devices(), universe.num_base_stations());
  if (shared != nullptr) {
    MECSCHED_REQUIRE(shared->task_items.size() == trace.arrivals(),
                     "SharedDataView::task_items must have one set per "
                     "arrival (" +
                         std::to_string(shared->task_items.size()) + " vs " +
                         std::to_string(trace.arrivals()) + ")");
    MECSCHED_REQUIRE(shared->ownership.size() == universe.num_devices(),
                     "SharedDataView::ownership must have one set per "
                     "device (" +
                         std::to_string(shared->ownership.size()) + " vs " +
                         std::to_string(universe.num_devices()) + ")");
  }
  if (outcomes != nullptr) outcomes->assign(trace.arrivals(), TaskOutcome{});

  ServeResult result;
  Population pop(universe);
  Reconciler recon;
  control::ReadmissionQueue waiting(options_.readmission);
  IngestCursor cursor(trace, options_.batching);
  AdmissionControl admission(options_.admission);
  const Sharder sharder(universe, options_.sharding);
  exec::ThreadPool pool(options_.jobs);
  // Each shard's latest plan, the warm-start hint for its next solve.
  // Shard solves of one epoch write distinct slots, and epochs are
  // barriers, so a hint never races its producer.
  std::vector<std::shared_ptr<const assign::Assignment>> warm(
      sharder.num_shards());
  // One per arrival, id = arrival ordinal; rejected ones are never admitted.
  std::vector<Arrival> pending;
  pending.reserve(trace.arrivals());

  obs::Registry& reg = obs::Registry::global();
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  // Per-decision and per-epoch handles, resolved once: each lookup takes
  // the registry mutex, and the handles survive Registry::reset().
  obs::Histogram& admit_ms = reg.window("serve.admit_to_decision_ms");
  obs::Histogram& epoch_solve_ms = reg.window("serve.epoch.solve_ms");
  obs::Gauge& queue_depth = reg.gauge("serve.queue.depth");
  const obs::ScopedTimer run_span("serve.run", "serve");

  const double budget_s = options_.epoch_budget_ms * 1e-3;
  double now = 0.0;
  std::size_t epoch = 0;

  // Logs a disposition without a placement; a terminal one (anything but
  // a retry) also becomes the task's outcome.
  auto settle = [&](std::size_t id, double t, DecisionKind kind) {
    const Arrival& p = pending[id];
    if (log != nullptr) {
      log->append({epoch, t, p.task().id, kind, 0, Decision::kCancelled,
                   p.attempts, 0.0, 0.0});
    }
    if (outcomes != nullptr && kind != DecisionKind::kRetry) {
      (*outcomes)[id] = {kind, Decision::kCancelled, 0.0, 0.0, p.attempts};
    }
  };

  // Re-admit with backoff, or settle as exhausted.
  auto retry_or_exhaust = [&](std::size_t id, double t) {
    if (waiting.retry(id, pending[id].attempts, epoch)) {
      settle(id, t, DecisionKind::kRetry);
    } else {
      ++result.exhausted;
      settle(id, t, DecisionKind::kExhausted);
    }
  };

  // Starts a task at `now`: it holds its capacity until the analytic
  // finish time.
  auto place = [&](std::size_t id, std::size_t shard, Decision d,
                   double latency_s, double energy_j) {
    const Arrival& p = pending[id];
    const mec::Task& task = p.task();
    const double finish = now + latency_s;
    const double wait_s = now - p.arrival_s();
    result.total_energy_j += energy_j;
    result.makespan_s = std::max(result.makespan_s, finish);
    ++result.decisions;
    recon.start({id, finish, d, task.id.user, pop.station(task.id.user),
                 task.resource, task.external_bytes > 0.0,
                 task.external_owner});
    if (log != nullptr) {
      log->append({epoch, now, task.id, DecisionKind::kDecide, shard, d,
                   p.attempts, wait_s, energy_j});
    }
    if (outcomes != nullptr) {
      (*outcomes)[id] = {DecisionKind::kDecide, d, now, finish, p.attempts};
    }
    admit_ms.observe(wait_s * 1e3);
  };

  for (;; ++epoch) {
    if (stop.expired()) {
      // Graceful stop: settle everything still open so the log accounts
      // for every admitted task — waiting room first (admission order),
      // then in-flight work (start order).
      result.stopped_early = true;
      for (const ReadmissionEntry& w : waiting.take_ready(
               std::numeric_limits<std::size_t>::max())) {
        ++result.abandoned;
        settle(w.id, now, DecisionKind::kAbandoned);
      }
      for (const RunningTask& r : recon.running()) {
        ++result.abandoned;
        settle(r.id, now, DecisionKind::kAbandoned);
      }
      break;
    }
    if (cursor.exhausted() && waiting.empty() && recon.empty()) {
      break;
    }

    const obs::ScopedTimer epoch_span(
        "serve.epoch", "serve",
        obs::Tracer::global().enabled()
            ? "\"epoch\":" + std::to_string(epoch) +
                  ",\"running\":" + std::to_string(recon.size()) +
                  ",\"waiting\":" + std::to_string(waiting.waiting())
            : std::string());

    // Phase spans run back to back: each emplace ends the previous phase,
    // so together they cover the epoch.
    std::optional<obs::ScopedTimer> phase;

    // ---- 1. Ingest: close the window, replay its events in trace order.
    phase.emplace("serve.ingest", "serve");
    Window w = cursor.next_window(now);
    now = w.close_s;
    result.virtual_now_s = now;
    for (const Event& e : w.events) {
      ++result.events;
      if (e.kind == EventKind::kTaskArrival) {
        ++result.arrivals;
        const std::size_t id = pending.size();
        pending.push_back({&e, 0});
        if (admission.offer(waiting.waiting())) {
          waiting.admit(id, epoch);
        } else {
          settle(id, e.time_s, DecisionKind::kReject);
        }
      } else {
        const Interruptions hit = recon.observe(e);
        for (const std::size_t id : hit.lost_issuer) {
          ++result.lost_issuer;
          settle(id, e.time_s, DecisionKind::kLostIssuer);
        }
        for (const std::size_t id : hit.orphaned) {
          ++result.orphaned;
          retry_or_exhaust(id, e.time_s);
        }
        pop.apply(e);
      }
    }

    // ---- Completions free their reservations.
    result.completed += recon.collect_completions(now).size();

    ++result.epochs;

    // ---- 2. Triage the epoch batch.
    phase.emplace("serve.triage", "serve");
    const std::vector<ReadmissionEntry> ready = waiting.take_ready(epoch);
    queue_depth.set(static_cast<double>(waiting.waiting()));
    if (ready.empty()) continue;
    ++result.decide_epochs;

    std::vector<PendingTask> batch;
    std::vector<double> residuals;
    for (const ReadmissionEntry& wte : ready) {
      Arrival& p = pending[wte.id];
      p.attempts = wte.attempts + 1;
      const mec::Task& task = p.task();
      const std::size_t issuer = task.id.user;
      // Residual slack, net of the time this epoch's decision is allowed
      // to burn (the configured budget, for determinism).
      const double residual =
          task.deadline_s - (now - p.arrival_s()) - budget_s;
      if (residual <= 0.0) {
        ++result.expired;
        settle(wte.id, now, DecisionKind::kExpire);
        continue;
      }
      if (!pop.up(issuer)) {
        ++result.lost_issuer;
        settle(wte.id, now, DecisionKind::kLostIssuer);
        continue;
      }
      const std::size_t cell = pop.station(issuer);
      if (task.external_bytes > 0.0 && !pop.up(task.external_owner)) {
        const std::optional<dta::DtaResult> div =
            shared == nullptr
                ? std::nullopt
                : rescue(universe, pop, *shared, shared->task_items[wte.id],
                         task, residual);
        if (div) {
          const double finish = now + div->processing_time_s;
          ++result.completed;
          ++result.rescued;
          result.total_energy_j += div->total_energy_j;
          result.makespan_s = std::max(result.makespan_s, finish);
          if (log != nullptr) {
            log->append({epoch, now, task.id, DecisionKind::kRescue,
                         sharder.shard_of_station(cell), Decision::kLocal,
                         p.attempts, now - p.arrival_s(),
                         div->total_energy_j});
          }
          if (outcomes != nullptr) {
            (*outcomes)[wte.id] = {DecisionKind::kRescue, Decision::kLocal,
                                   now, finish, p.attempts};
          }
          continue;
        }
        // The owner may rejoin; park the task.
        retry_or_exhaust(wte.id, now);
        continue;
      }
      if (!pop.station_up(cell)) {
        // The cell is dark: only local execution is possible, and only
        // when the external data (if any) is fetched inside the cell.
        // Otherwise wait for the cell.
        const bool fetch_routable =
            task.external_bytes <= 0.0 ||
            pop.station(task.external_owner) == cell;
        const bool fits = recon.device_used(issuer, now) + task.resource <=
                          universe.device(issuer).max_resource;
        if (fetch_routable && fits) {
          const mec::CostEntry local = local_cost_now(universe, pop, task);
          if (local.latency_s() <= residual) {
            place(wte.id, sharder.shard_of_station(cell), Decision::kLocal,
                  local.latency_s(), local.energy_j);
            continue;
          }
        }
        retry_or_exhaust(wte.id, now);
        continue;
      }
      batch.push_back({wte.id, task});
      residuals.push_back(residual);
    }
    if (batch.empty()) continue;

    // ---- 3. Shard against the residual system.
    phase.emplace("serve.occupancy", "serve");
    const ResidualCapacity capacity = residual_at(universe, recon, batch, now);
    phase.emplace("serve.shard", "serve");
    const std::vector<ShardProblem> shards =
        sharder.build(pop, capacity, batch, residuals);

    // ---- 4. Solve every shard in parallel under one epoch deadline.
    phase.emplace("serve.solve", "serve");
    CancellationToken epoch_token = stop;
    if (options_.epoch_budget_ms > 0.0) {
      epoch_token =
          stop.with_deadline(Deadline::after_ms(options_.epoch_budget_ms));
    }
    auto solve_shard = [&](const ShardProblem& sp) -> ShardOutcome {
      const auto t0 = std::chrono::steady_clock::now();
      const assign::HtaInstance inst(sp.topology, sp.tasks);
      ShardOutcome oc;
      assign::LpHtaOptions lp_opts = options_.lp;
      std::shared_ptr<const assign::Assignment> hint;
      if (options_.warm_start) {
        hint = warm[sp.shard];
        lp_opts.warm_hint = hint.get();
      }
      const control::FallbackChain chain(lp_opts);
      oc.plan = chain.assign(inst, oc.rung, epoch_token);
      if (options_.warm_start) {
        warm[sp.shard] = std::make_shared<const assign::Assignment>(oc.plan);
      }
      oc.latency_s.assign(sp.tasks.size(), 0.0);
      oc.energy_j.assign(sp.tasks.size(), 0.0);
      for (std::size_t t = 0; t < sp.tasks.size(); ++t) {
        if (oc.plan.decisions[t] == Decision::kCancelled) continue;
        const mec::Placement pl = assign::to_placement(oc.plan.decisions[t]);
        oc.latency_s[t] = inst.latency(t, pl);
        oc.energy_j[t] = inst.energy(t, pl);
      }
      if (flight.enabled()) {
        obs::SolveRecord rec;
        rec.layer = "serve";
        rec.engine = "shard";
        rec.status = control::to_string(oc.rung);
        rec.detail = "epoch " + std::to_string(epoch) + " shard " +
                     std::to_string(sp.shard);
        rec.seconds = wall_ms(t0) * 1e-3;
        rec.iterations = sp.tasks.size();
        rec.deadline_residual_ms =
            obs::FlightRecorder::residual_ms(epoch_token.deadline());
        rec.deadline_hit = epoch_token.expired();
        rec.warm_start = hint != nullptr;
        flight.record(std::move(rec));
      }
      return oc;
    };

    const auto solve_t0 = std::chrono::steady_clock::now();
    std::vector<std::future<ShardOutcome>> futures;
    futures.reserve(shards.size());
    for (const ShardProblem& sp : shards) {
      futures.push_back(
          pool.submit([&solve_shard, &sp] { return solve_shard(sp); }));
    }
    std::vector<ShardOutcome> solved;
    solved.reserve(shards.size());
    for (std::future<ShardOutcome>& f : futures) {
      solved.push_back(f.get());  // shard order, not finish order
    }
    const double solve_ms = wall_ms(solve_t0);
    epoch_solve_ms.observe(solve_ms);
    if (options_.epoch_budget_ms > 0.0 && epoch_token.expired()) {
      // Rare: a handle resolved up front would export a zero counter.
      // lint:allow-registry-lookup-in-loop -- only on an expired budget.
      reg.counter("serve.epoch.budget_expired").add();
    }

    // ---- 5. Apply in shard order: the decision log never sees the
    // worker schedule.
    phase.emplace("serve.apply", "serve");
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const ShardProblem& sp = shards[i];
      const ShardOutcome& oc = solved[i];
      ++result.shard_solves;
      ++result.rungs[oc.rung];
      for (std::size_t t = 0; t < sp.tasks.size(); ++t) {
        const std::size_t id = sp.task_ids[t];
        const Decision d = oc.plan.decisions[t];
        if (d == Decision::kCancelled) {
          retry_or_exhaust(id, now);
          continue;
        }
        place(id, sp.shard, d, oc.latency_s[t], oc.energy_j[t]);
      }
    }
  }

  result.admitted = admission.admitted();
  result.rejected = admission.rejected();
  result.retries = waiting.retries();

  reg.counter("serve.runs").add();
  reg.counter("serve.events.ingested").add(result.events);
  reg.counter("serve.arrivals").add(result.arrivals);
  reg.counter("serve.admission.admitted").add(result.admitted);
  reg.counter("serve.admission.rejected").add(result.rejected);
  reg.counter("serve.epochs").add(result.epochs);
  reg.counter("serve.decisions").add(result.decisions);
  reg.counter("serve.completed").add(result.completed);
  reg.counter("serve.rescued").add(result.rescued);
  reg.counter("serve.expired").add(result.expired);
  reg.counter("serve.lost_issuer").add(result.lost_issuer);
  reg.counter("serve.exhausted").add(result.exhausted);
  reg.counter("serve.orphans").add(result.orphaned);
  reg.counter("serve.readmissions").add(result.retries);
  reg.counter("serve.abandoned").add(result.abandoned);
  reg.counter("serve.shard_solves").add(result.shard_solves);
  return result;
}

}  // namespace mecsched::serve
