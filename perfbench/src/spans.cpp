#include "spans.h"

#include <algorithm>
#include <numeric>

#include "common/stats.h"

namespace perfbench {

std::vector<Span> spans_from_events(
    const std::vector<mecsched::obs::TraceEvent>& events) {
  std::vector<Span> out;
  for (const mecsched::obs::TraceEvent& e : events) {
    if (e.phase != mecsched::obs::Phase::kComplete) continue;
    out.push_back({e.name, e.tid, e.ts_us, e.dur_us});
  }
  return out;
}

std::vector<double> self_times_s(const std::vector<Span>& spans) {
  // Per thread, visit spans by start (longer first on ties, so a parent
  // precedes a child that starts with it) and keep a stack of open spans.
  // Each span charges the part of its interval not yet covered by an
  // earlier sibling to its parent; microsecond truncation can make a child
  // overhang its parent, so coverage is clipped to the parent.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });

  struct Open {
    std::size_t index;
    std::int64_t end_us;
    std::int64_t covered_until_us;
  };
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<Open> stack;
  std::uint64_t tid = 0;
  for (const std::size_t i : order) {
    const Span& s = spans[i];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && stack.back().end_us <= s.start_us) {
      stack.pop_back();
    }
    const std::int64_t end = s.start_us + s.dur_us;
    if (!stack.empty()) {
      Open& parent = stack.back();
      const std::int64_t from = std::max(s.start_us, parent.covered_until_us);
      const std::int64_t to = std::min(end, parent.end_us);
      if (to > from) covered[parent.index] += to - from;
      parent.covered_until_us = std::max(parent.covered_until_us, to);
    }
    stack.push_back({i, end, s.start_us});
  }

  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = static_cast<double>(spans[i].dur_us - covered[i]) * 1e-6;
  }
  return out;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_s(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_s += static_cast<double>(spans[i].dur_us) * 1e-6;
    t.self_s += self[i];
  }
  return out;
}

std::vector<double> durations_s(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.dur_us) * 1e-6);
  }
  return out;
}

double quantile(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : mecsched::percentile(samples, q);
}

}  // namespace perfbench
