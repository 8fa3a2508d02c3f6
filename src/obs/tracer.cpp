#include "obs/tracer.h"

#include <functional>
#include <thread>

#include "obs/registry.h"

namespace mecsched::obs {
namespace {

std::uint64_t this_thread_id() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

Tracer& Tracer::global() {
  // lint:allow-naked-new -- intentionally leaked singleton, like Registry.
  static Tracer* instance = new Tracer();
  return *instance;
}

std::int64_t Tracer::steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::enable(std::size_t capacity) {
  const MutexLock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(capacity_);
  head_ = 0;
  wrapped_ = false;
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

std::int64_t Tracer::now_us() const {
  // Same truncation as the previous duration_cast-to-microseconds of a
  // time_point difference: integer nanoseconds divided toward zero.
  return (steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed)) /
         1000;
}

void Tracer::push(TraceEvent ev) {
  const MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    head_ = ring_.size() % capacity_;
    return;
  }
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
  wrapped_ = true;
  dropped_.fetch_add(1, std::memory_order_relaxed);
  // Surface the overflow outside the trace file too: the CLI and bench
  // harness warn on exit when this counter moved (the trace JSON alone
  // buries the loss in otherData). The reference is stable across
  // Registry::reset(), so resolving it once is safe.
  static Counter& dropped_events =
      Registry::global().counter("obs.tracer.dropped_events");
  dropped_events.add();
}

void Tracer::begin(const std::string& name, const std::string& category) {
  if (!enabled()) return;
  push({name, category, Phase::kBegin, now_us(), 0, this_thread_id(), ""});
}

void Tracer::end(const std::string& name, const std::string& category) {
  if (!enabled()) return;
  push({name, category, Phase::kEnd, now_us(), 0, this_thread_id(), ""});
}

void Tracer::complete(const std::string& name, const std::string& category,
                      std::int64_t ts_us, std::int64_t dur_us,
                      const std::string& args_json) {
  if (!enabled()) return;
  push({name, category, Phase::kComplete, ts_us, dur_us, this_thread_id(),
        args_json});
}

void Tracer::instant(const std::string& name, const std::string& category,
                     const std::string& args_json) {
  if (!enabled()) return;
  push({name, category, Phase::kInstant, now_us(), 0, this_thread_id(),
        args_json});
}

std::vector<TraceEvent> Tracer::snapshot() const {
  const MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<long>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<long>(head_));
  } else {
    out = ring_;
  }
  return out;
}

void Tracer::clear() {
  const MutexLock lock(mu_);
  ring_.clear();
  head_ = 0;
  wrapped_ = false;
  dropped_.store(0, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(std::string name, std::string category,
                         std::string args_json)
    : name_(std::move(name)),
      category_(std::move(category)),
      args_json_(std::move(args_json)),
      histogram_(&Registry::global().histogram(name_ + ".seconds")) {
  // The clock starts after the histogram lookup and the tracer check, so
  // a span times its body, not its own setup.
  Tracer& t = Tracer::global();
  traced_ = t.enabled();
  if (traced_) start_us_ = t.now_us();
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  const double seconds = elapsed_s();
  histogram_->observe(seconds);
  if (traced_) {
    Tracer& t = Tracer::global();
    // Re-check: the tracer may have been disabled mid-span (complete() is
    // a no-op then, which is fine — the metrics side already recorded).
    t.complete(name_, category_, start_us_,
               static_cast<std::int64_t>(seconds * 1e6), args_json_);
  }
}

double ScopedTimer::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace mecsched::obs
