// Per-solve flight recorder: a sharded ring of structured SolveRecords.
//
// Aggregate metrics answer "how many solves missed their deadline"; the
// flight recorder answers "which solve, in which layer, with how much
// budget left, warm-started or not, with which faults injected" — the
// record you autopsy after a SolverError, an AuditError or a deadline
// expiry. Every instrumented layer (lp/, assign/, control/, exec/)
// appends one record per solve/decision/cell; the CLI's --flight-out flag
// (and MECSCHED_FLIGHT_OUT for the bench binaries) dumps the ring as
// JSONL on exit — even when the command failed, because the trace of the
// failing run is precisely the artifact worth keeping.
//
// Cost contract: disabled (the default), record() is never reached —
// call sites gate on enabled(), a single relaxed atomic load, before
// building the record. Enabled, records hash onto kShards independent
// rings by thread id, so parallel cluster solves don't serialize on one
// mutex; a global relaxed seq counter preserves a total order for
// snapshot() and the JSONL dump.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/thread_annotations.h"

namespace mecsched::obs {

// One solve/decision/cell, as the flight recorder saw it end.
struct SolveRecord {
  std::uint64_t seq = 0;  // assigned by record(); global order
  // Which subsystem reported: "lp", "assign", "control", "exec".
  std::string layer;
  // The engine/rung inside the layer: "simplex", "ipm", "lp_hta",
  // "LP-HTA"/"HGOS"/"LocalFirst" (fallback rungs), "decision",
  // "sweep_cell".
  std::string engine;
  // Terminal state: an lp::to_string(SolveStatus) value ("optimal",
  // "deadline", ...), or "served"/"failed"/"skipped" (fallback rungs),
  // "ok"/"error"/"audit-error" (assign/exec layers).
  std::string status;
  // Free-form context: error message, cell index, station id. May be "".
  std::string detail;
  double seconds = 0.0;
  std::uint64_t iterations = 0;  // pivots / IPM iterations / LP totals
  // Budget left when the record was cut, in milliseconds; negative when
  // past the deadline, NaN when the solve ran unlimited.
  double deadline_residual_ms = std::numeric_limits<double>::quiet_NaN();
  bool deadline_hit = false;  // ended via the kDeadline anytime path
  bool warm_start = false;
  std::uint64_t chaos_hits = 0;  // chaos::local_injections() delta
  // Audit verdict: "" (not audited at this site), "ok", or the
  // AuditError message.
  std::string audit;
};

class FlightRecorder {
 public:
  // The process-wide instance; disabled until enable() is called.
  static FlightRecorder& global();

  // Starts (or restarts) recording, clearing previous records.
  // `capacity_per_shard` bounds each of the kShards rings; the newest
  // records win when a ring wraps (dropped() counts the overwritten).
  void enable(std::size_t capacity_per_shard = 1 << 12);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Appends a record (stamping its seq). No-op while disabled, but call
  // sites should gate on enabled() and skip building the record at all.
  void record(SolveRecord r);

  // Seq-ordered copy of every buffered record.
  std::vector<SolveRecord> snapshot() const;
  std::uint64_t recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  void clear();

  // Convenience for call sites stamping deadline fields: remaining budget
  // in ms, NaN for an unlimited deadline.
  static double residual_ms(const Deadline& d) {
    return d.is_unlimited() ? std::numeric_limits<double>::quiet_NaN()
                            : d.remaining_ms();
  }

  static constexpr std::size_t kShards = 8;

 private:
  struct Shard {
    mutable Mutex mu;
    std::vector<SolveRecord> ring MECSCHED_GUARDED_BY(mu);
    std::size_t head MECSCHED_GUARDED_BY(mu) = 0;
    bool wrapped MECSCHED_GUARDED_BY(mu) = false;
  };

  Shard& shard_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> dropped_{0};
  // Written by enable() while record() reads it under a *shard* lock, not
  // a common one — atomic, like enabled_, rather than guarded.
  std::atomic<std::size_t> capacity_per_shard_{1 << 12};
  Shard shards_[kShards];
};

}  // namespace mecsched::obs
