// Process-wide metric registry: counters, gauges and histograms.
//
// The registry is the measurement substrate every layer reports into —
// solver iteration counts, repair moves, serve epoch tallies, span
// durations. Design goals, in order:
//
//   * writes are cheap enough for per-decision / per-solve granularity
//     (counters and gauges are single relaxed atomics; a histogram takes
//     one uncontended mutex per observe),
//   * references returned by counter()/gauge()/histogram()/window() stay
//     valid for the life of the process — reset() zeroes values but never
//     removes entries, so call sites resolve a handle once and keep it,
//   * everything is thread-safe: the LP-HTA cluster workers, the sweep
//     workers and the serve shard solves write concurrently.
//
// Exporters (Prometheus text, summary table) live in obs/export.h; the
// structured event tracer lives in obs/tracer.h.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"

namespace mecsched::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value (residuals, gaps, sizes).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Distribution of observed values — the one distribution type in obs.
//
// Lifetime view: a streaming Summary (count/mean/var/min/max) plus fixed
// log10 buckets spanning 1e-9 .. 1e9. The bucket grid is deliberately
// static — durations in seconds, iteration counts and energy all land
// inside it, and a fixed grid keeps merge and Prometheus export trivial.
//
// Rolling view (optional; Registry::window attaches it): a ring of
// fixed-duration epochs, each holding the same Summary + bucket cell as
// the lifetime view. An observation lands in the lifetime cell and in the
// current epoch under one lock; snapshot() aggregates only the epochs
// still inside the window, so old load ages out. A histogram without a
// ring behaves as a window of one epoch that never expires. Epochs
// advance in one of two modes:
//   * timed (epoch_seconds > 0): the current epoch is derived from a
//     steady clock, so a long-running daemon rolls automatically;
//   * manual (epoch_seconds == 0): epochs advance only via advance() —
//     deterministic by construction, which is what the sweep-shard
//     determinism tests use.
// advance() works in both modes (it shifts the epoch index on top of the
// clock), so a test can force expiry without sleeping.
//
// Quantiles (approx_percentile, snapshot) interpolate linearly inside the
// selected bucket and clamp to the observed [min, max]. With one bucket
// per decade the error is bounded only by the bucket: an estimate lies in
// the decade that holds the exact rank-ceil(q*n) sample, up to 10x off, so
// it is a coarse summary column, not a value to assert or gate on.
//
// Thread-safety: one uncontended mutex per histogram guards both views;
// the LP-HTA cluster workers, the sweep workers and the serve shard
// solves write concurrently.
class Histogram {
 public:
  // Upper bounds of the finite buckets; an implicit +Inf bucket follows.
  static const std::vector<double>& bucket_bounds();

  void observe(double v);

  Summary summary() const;
  // Cumulative counts per finite bucket (Prometheus `le` semantics);
  // summary().count() is the +Inf entry.
  std::vector<std::uint64_t> cumulative_buckets() const;
  // Quantile (q in [0,1]) of the lifetime view; NaN when empty.
  double approx_percentile(double q) const;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::quiet_NaN();
    double max = std::numeric_limits<double>::quiet_NaN();
    double p50 = std::numeric_limits<double>::quiet_NaN();
    double p90 = std::numeric_limits<double>::quiet_NaN();
    double p95 = std::numeric_limits<double>::quiet_NaN();
    double p99 = std::numeric_limits<double>::quiet_NaN();
    // Events per second over the covered span; NaN in manual mode and
    // without a ring (no wall-clock to divide by).
    double rate_hz = std::numeric_limits<double>::quiet_NaN();
    double span_seconds = 0.0;
  };
  // The rolling view: the live epochs of the ring, or the lifetime view
  // when there is no ring.
  Snapshot snapshot() const;
  bool has_window() const;
  // Rotates the ring forward by `epochs` epochs; no-op without a ring.
  void advance(std::size_t epochs = 1);

  // Folds another histogram's samples in: the lifetime views merge
  // sample-exactly (the shared static grid makes bucket adds exact). When
  // `other` has a ring, its live samples collapse into this histogram's
  // current epoch (attaching a ring of the same shape first if needed);
  // collapsing rather than aligning epochs keeps the merge commutative, so
  // grid-order shard merges stay schedule-independent. Safe against
  // concurrent observers of either side.
  void merge_from(const Histogram& other);
  // Zeroes both views; an attached ring stays attached.
  void reset();

 private:
  friend class Registry;

  // One distribution: the lifetime view, or one epoch of the ring.
  struct Cell {
    Summary summary;
    std::vector<std::uint64_t> buckets;  // per bucket; sized on first use

    // `bucket` indexes `buckets`; past the end means the +Inf bucket only.
    void add(double v, std::size_t bucket);
    void merge(const Cell& other);
    double quantile(double q) const;
  };
  struct Epoch {
    bool live = false;
    std::uint64_t index = 0;  // absolute epoch number
    Cell cell;
  };
  struct Ring {
    double epoch_seconds = 0.0;  // 0: manual mode
    std::size_t num_epochs = 1;
    std::uint64_t manual_offset = 0;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    std::vector<Epoch> epochs;

    std::uint64_t current_index() const;
    Epoch& current_epoch();
    // Aggregate of the epochs inside the window ending now.
    Cell live() const;
    // Seconds of history the window covers: the full ring once warmed
    // up, the elapsed time (floored at one epoch) before; 0 when manual.
    double span_seconds() const;
  };

  // Attaches the rolling view on first call; later calls keep the ring
  // they find. epoch_seconds == 0 selects manual mode.
  void attach_window(double epoch_seconds, std::size_t num_epochs);

  mutable Mutex mu_;
  Cell lifetime_ MECSCHED_GUARDED_BY(mu_);
  std::optional<Ring> ring_ MECSCHED_GUARDED_BY(mu_);
};

class Registry {
 public:
  // The process-wide instance all instrumentation reports into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or creates the named metric. Names are dot-separated lower-case
  // paths ("lp.simplex.pivots"); exporters sanitize them per format. A
  // name registers as exactly one kind — reusing it as another kind
  // throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  // The same object as histogram(name), with the rolling view attached on
  // the first call (later calls keep the first ring). Exporters render the
  // rolling view as the `<name>.window.*` family. Defaults: 60 one-second
  // epochs; epoch_seconds == 0 selects a manual-advance window.
  Histogram& window(const std::string& name, double epoch_seconds = 1.0,
                    std::size_t num_epochs = 60);

  // Zeroes every metric in place. Entries (and references to them) remain
  // valid — callers caching references across reset() keep working.
  void reset();

  // Folds another registry's values into this one: counters add,
  // histograms merge (see Histogram::merge_from), gauges take the other's
  // value (last merge wins — merge shards in a deterministic order when
  // gauge values matter). This is how the sweep runner reduces per-cell
  // metric shards into the global registry after a parallel join.
  void merge_from(const Registry& other);

  // Stable-ordered snapshots for the exporters.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;
  // The histograms that carry a ring.
  std::vector<std::pair<std::string, const Histogram*>> windows() const;

 private:
  using Entry = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                             std::unique_ptr<Histogram>>;

  template <typename T>
  T& find_or_create(const std::string& name) MECSCHED_EXCLUDES(mu_);
  template <typename T>
  std::vector<std::pair<std::string, const T*>> entries() const
      MECSCHED_EXCLUDES(mu_);

  // mu_ guards the name→entry map only; the metric objects themselves
  // are thread-safe and are handed out as long-lived references.
  mutable Mutex mu_;
  std::map<std::string, Entry> metrics_ MECSCHED_GUARDED_BY(mu_);
};

}  // namespace mecsched::obs
