#include "serve/reconciler.h"

#include "common/error.h"

namespace mecsched::serve {

namespace {

bool offloaded(const RunningTask& r) {
  return r.where != assign::Decision::kLocal;
}

// The list filed under `key`, grown on first use.
template <typename List>
List& list_for(std::vector<List>& lists, std::size_t key) {
  if (key >= lists.size()) lists.resize(key + 1);
  return lists[key];
}

// The list filed under `key`, or nullptr when nothing ever was.
template <typename List>
List* existing(std::vector<List>& lists, std::size_t key) {
  return key < lists.size() ? &lists[key] : nullptr;
}

}  // namespace

Reconciler::List* Reconciler::list_of(Chain chain, const RunningTask& t) {
  switch (chain) {
    case kOrder:
      return &order_;
    case kIssuer:
      return &list_for(by_issuer_, t.issuer);
    case kOwner:
      return t.has_external ? &list_for(by_owner_, t.owner) : nullptr;
    case kStation:
      return offloaded(t) ? &list_for(by_station_, t.station) : nullptr;
    default:
      return nullptr;
  }
}

void Reconciler::push_back(List& list, Chain chain, Slot s) {
  Link& l = nodes_[s].link[chain];
  l.prev = list.tail;
  l.next = kNil;
  if (list.tail == kNil) {
    list.head = s;
  } else {
    nodes_[list.tail].link[chain].next = s;
  }
  list.tail = s;
}

void Reconciler::unlink(List& list, Chain chain, Slot s) {
  const Link l = nodes_[s].link[chain];
  if (l.prev == kNil) {
    list.head = l.next;
  } else {
    nodes_[l.prev].link[chain].next = l.next;
  }
  if (l.next == kNil) {
    list.tail = l.prev;
  } else {
    nodes_[l.next].link[chain].prev = l.prev;
  }
}

void Reconciler::start(const RunningTask& t) {
  Slot s;
  if (free_.empty()) {
    MECSCHED_REQUIRE(nodes_.size() < kNil, "running set slot space exhausted");
    s = static_cast<Slot>(nodes_.size());
    nodes_.emplace_back();
  } else {
    s = free_.back();
    free_.pop_back();
  }
  nodes_[s].task = t;
  for (std::size_t c = 0; c < kChains; ++c) {
    const Chain chain = static_cast<Chain>(c);
    if (List* list = list_of(chain, t)) push_back(*list, chain, s);
  }
  ++size_;
}

void Reconciler::remove(Slot s) {
  const RunningTask& t = nodes_[s].task;
  for (std::size_t c = 0; c < kChains; ++c) {
    const Chain chain = static_cast<Chain>(c);
    if (List* list = list_of(chain, t)) unlink(*list, chain, s);
  }
  free_.push_back(s);
  --size_;
}

template <typename HitFn>
void Reconciler::take(List* list, Chain chain, double time_s, HitFn hit,
                      std::vector<std::size_t>& out) {
  if (list == nullptr) return;
  for (Slot s = list->head; s != kNil;) {
    const Slot next = nodes_[s].link[chain].next;
    const RunningTask& r = nodes_[s].task;
    if (r.finish_s > time_s && hit(r)) {
      out.push_back(r.id);
      remove(s);
    }
    s = next;
  }
}

Interruptions Reconciler::observe(const Event& e) {
  Interruptions out;
  const auto every = [](const RunningTask&) { return true; };
  switch (e.kind) {
    case EventKind::kDeviceLeave:
      take(existing(by_issuer_, e.device), kIssuer, e.time_s, every,
           out.lost_issuer);
      // The device's own runs are gone already: what is left on its owner
      // list is other issuers' work.
      take(existing(by_owner_, e.device), kOwner, e.time_s, every,
           out.orphaned);
      break;
    case EventKind::kDeviceMigrate:
      take(existing(by_issuer_, e.device), kIssuer, e.time_s, offloaded,
           out.orphaned);
      break;
    case EventKind::kStationFail:
      take(existing(by_station_, e.station), kStation, e.time_s, every,
           out.orphaned);
      break;
    default:
      break;
  }
  return out;
}

std::vector<std::size_t> Reconciler::collect_completions(double now) {
  std::vector<std::size_t> done;
  for (Slot s = order_.head; s != kNil;) {
    const Slot next = nodes_[s].link[kOrder].next;
    if (nodes_[s].task.finish_s <= now) {
      done.push_back(nodes_[s].task.id);
      remove(s);
    }
    s = next;
  }
  return done;
}

std::vector<RunningTask> Reconciler::running() const {
  std::vector<RunningTask> out;
  out.reserve(size_);
  for (Slot s = order_.head; s != kNil; s = nodes_[s].link[kOrder].next) {
    out.push_back(nodes_[s].task);
  }
  return out;
}

template <typename CountFn>
double Reconciler::sum(const std::vector<List>& lists, std::size_t key,
                       Chain chain, double now, CountFn counts) const {
  double used = 0.0;
  if (key >= lists.size()) return used;
  for (Slot s = lists[key].head; s != kNil; s = nodes_[s].link[chain].next) {
    const RunningTask& r = nodes_[s].task;
    if (r.finish_s > now && counts(r)) used += r.resource;
  }
  return used;
}

double Reconciler::device_used(std::size_t device, double now) const {
  return sum(by_issuer_, device, kIssuer, now, [](const RunningTask& r) {
    return r.where == assign::Decision::kLocal;
  });
}

double Reconciler::station_used(std::size_t station, double now) const {
  return sum(by_station_, station, kStation, now, [](const RunningTask& r) {
    return r.where == assign::Decision::kEdge;
  });
}

}  // namespace mecsched::serve
