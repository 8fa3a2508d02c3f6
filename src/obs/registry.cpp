#include "obs/registry.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mecsched::obs {

const std::vector<double>& Histogram::bucket_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (int e = -9; e <= 9; ++e) b.push_back(std::pow(10.0, e));
    return b;
  }();
  return bounds;
}

namespace {

// Index of the finite bucket holding v (the first bound >= v). NaN is
// kept out of the ordered search: like any v above the last finite bound
// it maps past the end, i.e. only into the implicit +Inf bucket (= the
// summary count).
std::size_t bucket_of(double v) {
  const std::vector<double>& bounds = Histogram::bucket_bounds();
  if (std::isnan(v)) return bounds.size();
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

}  // namespace

void Histogram::Cell::add(double v, std::size_t bucket) {
  summary.add(v);
  if (buckets.empty()) buckets.assign(bucket_bounds().size(), 0);
  if (bucket < buckets.size()) ++buckets[bucket];
}

void Histogram::Cell::merge(const Cell& other) {
  if (other.summary.count() == 0) return;
  summary.merge(other.summary);
  if (buckets.empty()) buckets.assign(bucket_bounds().size(), 0);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

double Histogram::Cell::quantile(double q) const {
  const std::uint64_t total = summary.count();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<double>& bounds = bucket_bounds();
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  // Walk the cumulative counts to the bucket holding rank `target`.
  std::size_t i = 0;
  std::uint64_t prev = 0;
  std::uint64_t cumulative = 0;
  for (; i < bounds.size(); ++i) {
    prev = cumulative;
    if (i < buckets.size()) cumulative += buckets[i];
    if (cumulative >= target) break;
  }
  double value;
  if (i == bounds.size()) {
    // Target rank sits in the implicit +Inf bucket (NaNs / huge values);
    // the observed max is the only estimate left, the last finite bound
    // the fallback.
    value = std::isnan(summary.max()) ? bounds.back() : summary.max();
  } else {
    const double upper = bounds[i];
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const std::uint64_t in_bucket = cumulative - prev;
    const double frac =
        in_bucket == 0 ? 1.0
                       : static_cast<double>(target - prev) /
                             static_cast<double>(in_bucket);
    value = lower + frac * (upper - lower);
  }
  // Clamp to the observed range: it tightens the coarse bucket edges.
  if (!std::isnan(summary.min())) value = std::max(value, summary.min());
  if (!std::isnan(summary.max())) value = std::min(value, summary.max());
  return value;
}

std::uint64_t Histogram::Ring::current_index() const {
  std::uint64_t timed = 0;
  if (epoch_seconds > 0.0) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    timed = static_cast<std::uint64_t>(elapsed / epoch_seconds);
  }
  return timed + manual_offset;
}

Histogram::Epoch& Histogram::Ring::current_epoch() {
  const std::uint64_t index = current_index();
  Epoch& e = epochs[static_cast<std::size_t>(index % num_epochs)];
  if (!e.live || e.index != index) e = Epoch{true, index, Cell{}};
  return e;
}

Histogram::Cell Histogram::Ring::live() const {
  // Live = within the last num_epochs epochs ending now.
  const std::uint64_t now = current_index();
  const std::uint64_t oldest =
      now >= num_epochs - 1 ? now - (num_epochs - 1) : 0;
  Cell agg;
  for (const Epoch& e : epochs) {
    if (e.live && e.index >= oldest && e.index <= now) agg.merge(e.cell);
  }
  return agg;
}

double Histogram::Ring::span_seconds() const {
  if (epoch_seconds <= 0.0) return 0.0;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return std::clamp(elapsed, epoch_seconds,
                    epoch_seconds * static_cast<double>(num_epochs));
}

void Histogram::observe(double v) {
  const std::size_t bucket = bucket_of(v);
  const MutexLock lock(mu_);
  lifetime_.add(v, bucket);
  if (ring_) ring_->current_epoch().cell.add(v, bucket);
}

Summary Histogram::summary() const {
  const MutexLock lock(mu_);
  return lifetime_.summary;
}

std::vector<std::uint64_t> Histogram::cumulative_buckets() const {
  const MutexLock lock(mu_);
  std::vector<std::uint64_t> out(bucket_bounds().size(), 0);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i < lifetime_.buckets.size()) acc += lifetime_.buckets[i];
    out[i] = acc;
  }
  return out;
}

double Histogram::approx_percentile(double q) const {
  const MutexLock lock(mu_);
  return lifetime_.quantile(q);
}

Histogram::Snapshot Histogram::snapshot() const {
  Cell agg;
  Snapshot s;
  {
    const MutexLock lock(mu_);
    agg = ring_ ? ring_->live() : lifetime_;
    if (ring_) s.span_seconds = ring_->span_seconds();
  }
  s.count = agg.summary.count();
  s.sum = agg.summary.sum();
  if (s.count > 0) {
    s.min = agg.summary.min();
    s.max = agg.summary.max();
    s.p50 = agg.quantile(0.50);
    s.p90 = agg.quantile(0.90);
    s.p95 = agg.quantile(0.95);
    s.p99 = agg.quantile(0.99);
  }
  if (s.span_seconds > 0.0) {
    s.rate_hz = static_cast<double>(s.count) / s.span_seconds;
  }
  return s;
}

bool Histogram::has_window() const {
  const MutexLock lock(mu_);
  return ring_.has_value();
}

void Histogram::advance(std::size_t epochs) {
  const MutexLock lock(mu_);
  if (ring_) ring_->manual_offset += epochs;
}

void Histogram::attach_window(double epoch_seconds, std::size_t num_epochs) {
  MECSCHED_REQUIRE(std::isfinite(epoch_seconds) && epoch_seconds >= 0.0,
                   "window epoch_seconds must be finite and >= 0");
  MECSCHED_REQUIRE(num_epochs > 0, "window needs at least one epoch");
  const MutexLock lock(mu_);
  if (ring_) return;
  ring_.emplace();
  ring_->epoch_seconds = epoch_seconds;
  ring_->num_epochs = num_epochs;
  ring_->epochs.resize(num_epochs);
}

void Histogram::merge_from(const Histogram& other) {
  // Copy `other` under its own lock before taking ours, so self-merge and
  // concurrent writers stay safe.
  Cell lifetime;
  std::optional<Cell> rolling;
  double epoch_seconds = 0.0;
  std::size_t num_epochs = 0;
  {
    const MutexLock lock(other.mu_);
    lifetime = other.lifetime_;
    if (other.ring_) {
      rolling = other.ring_->live();
      epoch_seconds = other.ring_->epoch_seconds;
      num_epochs = other.ring_->num_epochs;
    }
  }
  if (rolling) attach_window(epoch_seconds, num_epochs);
  const MutexLock lock(mu_);
  lifetime_.merge(lifetime);
  if (rolling && rolling->summary.count() > 0) {
    ring_->current_epoch().cell.merge(*rolling);
  }
}

void Histogram::reset() {
  const MutexLock lock(mu_);
  lifetime_ = Cell{};
  if (ring_) {
    for (Epoch& e : ring_->epochs) e = Epoch{};
    ring_->manual_offset = 0;
    ring_->start = std::chrono::steady_clock::now();
  }
}

Registry& Registry::global() {
  // Metric references must outlive static-destruction order.
  // lint:allow-naked-new -- intentionally leaked singleton.
  static Registry* instance = new Registry();
  return *instance;
}

namespace {

// Indexed like Registry::Entry's alternatives.
constexpr const char* kKindNames[] = {"counter", "gauge", "histogram"};

}  // namespace

template <typename T>
T& Registry::find_or_create(const std::string& name) {
  const MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(name, std::make_unique<T>()).first;
  }
  auto* held = std::get_if<std::unique_ptr<T>>(&it->second);
  // One name maps to one metric kind; a kind collision is a programming
  // error worth failing loudly on.
  MECSCHED_REQUIRE(held != nullptr,
                   "obs metric '" + name + "' already registered as a " +
                       kKindNames[it->second.index()]);
  return **held;
}

template <typename T>
std::vector<std::pair<std::string, const T*>> Registry::entries() const {
  const MutexLock lock(mu_);
  std::vector<std::pair<std::string, const T*>> out;
  for (const auto& [name, entry] : metrics_) {
    if (const auto* m = std::get_if<std::unique_ptr<T>>(&entry)) {
      out.emplace_back(name, m->get());
    }
  }
  return out;
}

Counter& Registry::counter(const std::string& name) {
  return find_or_create<Counter>(name);
}

Gauge& Registry::gauge(const std::string& name) {
  return find_or_create<Gauge>(name);
}

Histogram& Registry::histogram(const std::string& name) {
  return find_or_create<Histogram>(name);
}

Histogram& Registry::window(const std::string& name, double epoch_seconds,
                            std::size_t num_epochs) {
  Histogram& h = histogram(name);
  h.attach_window(epoch_seconds, num_epochs);
  return h;
}

void Registry::reset() {
  const MutexLock lock(mu_);
  for (auto& [name, entry] : metrics_) {
    std::visit([](auto& m) { m->reset(); }, entry);
  }
}

void Registry::merge_from(const Registry& other) {
  // The snapshot accessors lock `other`; counter()/gauge()/histogram()
  // lock us while resolving the entry, then write through the returned
  // reference. No lock is ever held across both registries.
  for (const auto& [name, value] : other.counters()) counter(name).add(value);
  for (const auto& [name, value] : other.gauges()) gauge(name).set(value);
  for (const auto& [name, h] : other.histograms()) {
    histogram(name).merge_from(*h);
  }
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, c] : entries<Counter>()) {
    out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, g] : entries<Gauge>()) {
    out.emplace_back(name, g->value());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> Registry::histograms()
    const {
  return entries<Histogram>();
}

std::vector<std::pair<std::string, const Histogram*>> Registry::windows()
    const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const auto& entry : entries<Histogram>()) {
    if (entry.second->has_window()) out.push_back(entry);
  }
  return out;
}

}  // namespace mecsched::obs
