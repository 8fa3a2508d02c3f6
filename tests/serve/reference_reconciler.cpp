#include "reference_reconciler.h"

#include <algorithm>

namespace mecsched::serve {

namespace {

enum class Hit { kNone, kLost, kOrphaned };

// Removes the tasks `hit` interrupts from `running`; work finished by
// `time_s` is untouched.
template <typename HitFn>
Interruptions sweep(std::vector<RunningTask>& running, double time_s,
                    HitFn hit) {
  Interruptions out;
  std::vector<RunningTask> keep;
  keep.reserve(running.size());
  for (const RunningTask& r : running) {
    const Hit h = r.finish_s <= time_s ? Hit::kNone : hit(r);
    if (h == Hit::kLost) {
      out.lost_issuer.push_back(r.id);
    } else if (h == Hit::kOrphaned) {
      out.orphaned.push_back(r.id);
    } else {
      keep.push_back(r);
    }
  }
  running.swap(keep);
  return out;
}

}  // namespace

Interruptions ReferenceReconciler::observe(const Event& e) {
  const auto offloaded = [](const RunningTask& r) {
    return r.where != assign::Decision::kLocal;
  };
  switch (e.kind) {
    case EventKind::kDeviceLeave:
      return sweep(running_, e.time_s, [&e](const RunningTask& r) {
        if (r.issuer == e.device) return Hit::kLost;
        return r.has_external && r.owner == e.device ? Hit::kOrphaned
                                                     : Hit::kNone;
      });
    case EventKind::kDeviceMigrate:
      return sweep(running_, e.time_s, [&](const RunningTask& r) {
        return r.issuer == e.device && offloaded(r) ? Hit::kOrphaned
                                                    : Hit::kNone;
      });
    case EventKind::kStationFail:
      return sweep(running_, e.time_s, [&](const RunningTask& r) {
        return r.station == e.station && offloaded(r) ? Hit::kOrphaned
                                                      : Hit::kNone;
      });
    default:
      return {};
  }
}

std::vector<std::size_t> ReferenceReconciler::collect_completions(double now) {
  std::vector<std::size_t> done;
  for (const RunningTask& r : running_) {
    if (r.finish_s <= now) done.push_back(r.id);
  }
  running_.erase(std::remove_if(running_.begin(), running_.end(),
                                [now](const RunningTask& r) {
                                  return r.finish_s <= now;
                                }),
                 running_.end());
  return done;
}

void ReferenceReconciler::occupancy(double now,
                                    std::vector<double>& device_used,
                                    std::vector<double>& station_used) const {
  for (const RunningTask& r : running_) {
    if (r.finish_s <= now) continue;
    if (r.where == assign::Decision::kLocal) {
      device_used[r.issuer] += r.resource;
    } else if (r.where == assign::Decision::kEdge) {
      station_used[r.station] += r.resource;
    }
  }
}

}  // namespace mecsched::serve
