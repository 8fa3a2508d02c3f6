// Sweep-based running set — the reconciler as it was before the running
// set was indexed, kept as the differential-testing comparator for
// serve::Reconciler. Every churn event copies the whole running set,
// O(running) per event; occupancy is one pass over it into dense
// per-device and per-station ledgers. It exists to be the slow, simple,
// auditable reference.
#pragma once

#include <cstddef>
#include <vector>

#include "serve/reconciler.h"

namespace mecsched::serve {

class ReferenceReconciler {
 public:
  void start(const RunningTask& t) { running_.push_back(t); }

  // Same classification as Reconciler::observe.
  Interruptions observe(const Event& e);

  // Removes and returns (in start order) the ids of tasks with
  // finish_s <= now.
  std::vector<std::size_t> collect_completions(double now);

  const std::vector<RunningTask>& running() const { return running_; }

  // Adds the resource of work still running at `now` to `device_used`
  // (local placements, by issuer) and `station_used` (edge placements, by
  // serving station), in start order.
  void occupancy(double now, std::vector<double>& device_used,
                 std::vector<double>& station_used) const;

 private:
  std::vector<RunningTask> running_;
};

}  // namespace mecsched::serve
