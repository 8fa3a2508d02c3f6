// Span arithmetic for the traced pass: per-span self time and quantiles
// over raw samples.
//
// Self time of a span is its duration minus the part of its interval that
// its child spans on the same thread cover. Spans recorded on other
// threads (parallel shard or cluster solves) are never subtracted from a
// parent on the dispatching thread: that thread is waiting, and the wait
// is the parent's own time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t tid = 0;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
};

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // summed self times
};

// Complete ('X') events of a tracer snapshot, as spans.
std::vector<Span> spans_from_events(const std::vector<mecsched::obs::TraceEvent>& events);

// Self time of each span, in input order, in seconds.
std::vector<double> self_times_s(const std::vector<Span>& spans);

// Count, total and self time per span name.
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

// Durations (seconds) of every span called `name`, in input order.
std::vector<double> durations_s(const std::vector<Span>& spans,
                                const std::string& name);

// The q-quantile of raw samples (mecsched::percentile: linear
// interpolation between ranks); 0 when there are no samples.
double quantile(const std::vector<double>& samples, double q);

}  // namespace perfbench
