// ServeDaemon: the online, sharded scheduling loop behind `mecsched serve`.
//
// Epoch lifecycle (docs/serve.md):
//
//   1. ingest  — close the next batching window (IngestCursor): arrivals
//      pass admission control into the waiting room (ReadmissionQueue),
//      churn and fault events update the Population and are reconciled
//      against in-flight work (issuer gone -> lost; owner gone / issuer
//      migrated off-cell / serving cell failed -> orphaned and re-admitted
//      with backoff);
//   2. triage  — pull the epoch batch in admission order; expire tasks
//      whose residual slack (net of the configured epoch budget) is gone,
//      drop tasks whose issuer left; a task whose external owner is away
//      is rescued by DTA re-division across the surviving owners when the
//      caller passed a SharedDataView, else parked; a task whose cell is
//      dark runs locally when that fits and meets its slack, else is
//      parked;
//   3. shard   — price the residual capacity of every station and of the
//      devices the batch touches (occupancy), then cut the survivors into
//      per-neighborhood HtaInstances against it (Sharder);
//   4. solve   — shards run in parallel on one long-lived thread pool,
//      each through the FallbackChain under the shared epoch deadline
//      (anytime degradation per shard), warm-started from the shard's
//      plan of the previous epoch;
//   5. apply   — outcomes are gathered and committed *in shard order*:
//      placements start running (capacity reserved until the analytic
//      finish time), cancellations go back to the waiting room.
//
// Each phase is one span inside `serve.epoch` (serve.ingest, .triage,
// .occupancy, .shard, .solve, .apply), back to back. The serial phases
// cost what the epoch changed — its events and its batch — not the
// universe or the running set.
//
// Determinism contract: the virtual clock, batching, triage order,
// sharding and the apply order are all independent of the worker count,
// so the same (universe, trace, options) yields a byte-identical
// DecisionLog at --jobs 1 and --jobs N. The epoch budget is the exception
// — a wall-clock deadline makes rung selection machine-dependent — so the
// CI determinism gate runs unbudgeted (same trade the sweep path makes).
//
// A cooperative stop token (Ctrl-C via ScopedSignalStop, or tests) ends
// the run at the next epoch boundary; open tasks are logged as abandoned
// so the decision log always accounts for every admitted task.
#pragma once

#include <cstddef>
#include <vector>

#include "assign/lp_hta.h"
#include "common/deadline.h"
#include "control/fallback.h"
#include "control/readmission.h"
#include "dta/data_model.h"
#include "mec/topology.h"
#include "serve/decision_log.h"
#include "serve/event.h"
#include "serve/ingest.h"
#include "serve/sharder.h"

namespace mecsched::serve {

struct ServeOptions {
  BatchingOptions batching{};     // epoch window + size cap
  AdmissionOptions admission{};   // waiting-room depth cap
  ShardingOptions sharding{};
  control::ReadmissionOptions readmission{};  // retry budget + backoff
  // Per-epoch decision budget (0 = unlimited). Shared by all shards of
  // the epoch as one absolute deadline, and charged against each task's
  // residual slack at triage — deterministically, as the *configured*
  // value, not measured wall time.
  double epoch_budget_ms = 0.0;
  std::size_t jobs = 0;            // shard-solve workers; 0 = default_jobs
  bool warm_start = true;          // per-shard simplex warm hints
  assign::LpHtaOptions lp{};       // rung-0 configuration
};

struct ServeResult {
  std::size_t events = 0;        // trace events ingested
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;      // refused at admission
  std::size_t decisions = 0;     // tasks placed
  std::size_t completed = 0;     // rescued included
  std::size_t rescued = 0;       // completed by DTA re-division
  std::size_t expired = 0;       // slack gone at triage
  std::size_t lost_issuer = 0;   // issuer left (waiting or mid-run)
  std::size_t exhausted = 0;     // retry budget consumed
  std::size_t orphaned = 0;      // in-flight work interrupted by churn
  std::size_t retries = 0;       // successful re-admissions
  std::size_t abandoned = 0;     // open at an early stop
  std::size_t epochs = 0;        // loop heartbeats (drain included)
  std::size_t decide_epochs = 0; // epochs with a non-empty batch to triage
  std::size_t shard_solves = 0;  // shard problems solved
  control::RungHistogram rungs;  // which rung served each shard solve
  double total_energy_j = 0.0;
  double makespan_s = 0.0;       // last analytic finish
  double virtual_now_s = 0.0;    // clock when the loop ended
  bool stopped_early = false;    // stop token fired
};

// Optional data-shared view of a trace's tasks: per-item sizes, per-device
// ownership (replicas included) and each arrival's item set (empty = the
// task cannot be re-divided). Rescue re-divides with DTA-Workload and the
// greedy partial scheduler, which never throws; the partial executors are
// not charged against the epoch capacity ledger.
struct SharedDataView {
  std::vector<double> item_bytes;
  std::vector<dta::ItemSet> ownership;   // one per universe device
  std::vector<dta::ItemSet> task_items;  // one per trace arrival, in order
};

// One arrival's last disposition: its final decision-log record.
struct TaskOutcome {
  DecisionKind fate = DecisionKind::kAbandoned;
  // kDecide: the placement; kRescue: kLocal (the partials run on the
  // surviving owners); otherwise kCancelled.
  assign::Decision decision = assign::Decision::kCancelled;
  double start_s = 0.0;   // epoch boundary of the decision (placed only)
  double finish_s = 0.0;  // analytic completion (placed only)
  std::size_t attempts = 0;
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options = {});

  // Runs the trace to completion (or to `stop`). `log`, `shared` and
  // `outcomes` may be nullptr; `outcomes` is resized to one entry per
  // trace arrival, in trace order. The trace is validated against the
  // universe topology, and `shared` against the trace and the universe.
  ServeResult run(const mec::Topology& universe, const Trace& trace,
                  DecisionLog* log = nullptr,
                  const CancellationToken& stop = {},
                  const SharedDataView* shared = nullptr,
                  std::vector<TaskOutcome>* outcomes = nullptr) const;

 private:
  ServeOptions options_;
};

}  // namespace mecsched::serve
