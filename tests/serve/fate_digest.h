// Order-sensitive digest of per-task fates: FNV-1a over each task's
// (fate, decision, start_s, finish_s, attempts). Placement fields count
// only for placed fates (completed, rescued), so a task's earlier,
// interrupted placements never enter it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "serve/daemon.h"

namespace mecsched::serve {

// The fate vocabulary the digests were recorded in. `online` folds expiry
// and exhaustion into "cancelled": with one attempt per task both mean the
// task was never placed.
inline std::string fate_name(DecisionKind k, bool online) {
  switch (k) {
    case DecisionKind::kDecide:
      return "completed";
    case DecisionKind::kRescue:
      return "rescued";
    case DecisionKind::kLostIssuer:
      return "lost-issuer";
    case DecisionKind::kExpire:
      return online ? "cancelled" : "expired";
    case DecisionKind::kExhausted:
      return online ? "cancelled" : "exhausted";
    default:
      return to_string(k);
  }
}

inline std::uint64_t fate_digest(const std::vector<TaskOutcome>& outcomes,
                                 bool online) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const TaskOutcome& o : outcomes) {
    const std::string fate = fate_name(o.fate, online);
    mix(fate.data(), fate.size());
    const bool placed = fate == "completed" || fate == "rescued";
    const auto decision = static_cast<std::int64_t>(
        placed ? o.decision : assign::Decision::kCancelled);
    const double start = placed ? o.start_s : 0.0;
    const double finish = placed ? o.finish_s : 0.0;
    const auto attempts = static_cast<std::uint64_t>(o.attempts);
    mix(&decision, sizeof decision);
    mix(&start, sizeof start);
    mix(&finish, sizeof finish);
    mix(&attempts, sizeof attempts);
  }
  return h;
}

}  // namespace mecsched::serve
