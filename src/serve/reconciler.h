// Epoch reconciler: tracks in-flight work and resolves it against churn.
//
// Once a task is placed it occupies capacity until its analytic finish
// time. Between epoch boundaries devices leave and migrate; the
// reconciler classifies what that does to each in-flight task:
//
//   * issuer leaves        -> lost: nobody is left to receive the result;
//   * external owner leaves-> orphaned: the data source is gone mid-fetch,
//                             the task goes back to the waiting room;
//   * issuer migrates      -> an edge/cloud placement is orphaned (the
//                             serving cell changed under it; the delivery
//                             path through the old station is gone), a
//                             local run travels with the device and
//                             survives;
//   * owner migrates       -> survives (the fetch is pinned at start);
//   * station fails        -> edge/cloud work of issuers served through
//                             that cell is orphaned (its CPU, or its
//                             backhaul to the cloud, is gone); local runs
//                             survive.
//
// Interruption is at whole-run granularity (execution is analytic, per
// Sec. II's cost model): a task that finished before the event's
// timestamp is unaffected even if collection happens later.
//
// The running set is indexed so that an event visits only the tasks it can
// affect: every task sits on the start-order list, on its issuer's list,
// on its external owner's list (when it has external data) and, when
// offloaded, on its serving station's list. The lists are intrusive links
// in one slot arena, and each keeps start order, so every report and every
// capacity sum comes out in start order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "assign/assignment.h"
#include "serve/event.h"

namespace mecsched::serve {

// One placed task occupying capacity somewhere.
struct RunningTask {
  std::size_t id = 0;  // daemon-scoped pending-task id
  double finish_s = 0.0;
  assign::Decision where = assign::Decision::kCancelled;
  std::size_t issuer = 0;
  std::size_t station = 0;  // issuer's serving cell at decision time
  double resource = 0.0;
  bool has_external = false;
  std::size_t owner = 0;  // external data owner (valid if has_external)
};

// Tasks a churn event tore out of the running set.
struct Interruptions {
  std::vector<std::size_t> lost_issuer;  // terminal, in start order
  std::vector<std::size_t> orphaned;     // re-admittable, in start order
};

class Reconciler {
 public:
  void start(const RunningTask& t);

  // Classifies one churn or fault event against the running set, removing
  // the interrupted tasks. Arrival, join, recovery and link events never
  // interrupt.
  Interruptions observe(const Event& e);

  // Removes and returns (in start order) the ids of tasks with
  // finish_s <= now.
  std::vector<std::size_t> collect_completions(double now);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // The running set in start order.
  std::vector<RunningTask> running() const;

  // Resource still held after `now` by the device's local runs, and by the
  // station's edge runs, each summed in start order. The daemon subtracts
  // these from the universe capacities to price an epoch against the
  // residual system.
  double device_used(std::size_t device, double now) const;
  double station_used(std::size_t station, double now) const;

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNil = ~Slot{0};
  // One list per index; a slot carries one link pair per list.
  enum Chain : std::size_t { kOrder, kIssuer, kOwner, kStation, kChains };
  struct Link {
    Slot prev = kNil;
    Slot next = kNil;
  };
  struct List {
    Slot head = kNil;
    Slot tail = kNil;
  };
  struct Node {
    RunningTask task;
    std::array<Link, kChains> link;
  };

  // The list of `chain` that task `t` belongs on; nullptr when it is on
  // none (no external data, or not offloaded).
  List* list_of(Chain chain, const RunningTask& t);
  void push_back(List& list, Chain chain, Slot s);
  void unlink(List& list, Chain chain, Slot s);
  void remove(Slot s);
  // Removes the tasks on `list` that are still running at `time_s` and
  // that `hit` selects, appending their ids to `out` in start order.
  template <typename HitFn>
  void take(List* list, Chain chain, double time_s, HitFn hit,
            std::vector<std::size_t>& out);
  // Sums, in start order, the resource of the tasks filed under `key`
  // that `counts` selects and that run past `now`.
  template <typename CountFn>
  double sum(const std::vector<List>& lists, std::size_t key, Chain chain,
             double now, CountFn counts) const;

  std::vector<Node> nodes_;
  std::vector<Slot> free_;
  List order_;
  std::vector<List> by_issuer_;   // by universe device id
  std::vector<List> by_owner_;    // by universe device id
  std::vector<List> by_station_;  // by universe station id; offloaded only
  std::size_t size_ = 0;
};

}  // namespace mecsched::serve
