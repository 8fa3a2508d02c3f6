#include "sim/solver_chaos.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "common/error.h"
#include "common/hash.h"
#include "obs/registry.h"

namespace mecsched::sim {

namespace {

std::uint64_t hash_cstr(const char* s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;
  }
  return h;
}

chaos::Action to_action(SolverFaultKind k) {
  switch (k) {
    case SolverFaultKind::kStall:
      return chaos::Action::kStall;
    case SolverFaultKind::kNanPoison:
      return chaos::Action::kPoisonNan;
    case SolverFaultKind::kCancel:
      return chaos::Action::kCancel;
    case SolverFaultKind::kSpuriousError:
      return chaos::Action::kError;
  }
  return chaos::Action::kNone;
}

void require_probability(double p, const char* name) {
  MECSCHED_REQUIRE(std::isfinite(p) && p >= 0.0 && p <= 1.0,
                   std::string(name) + " must lie in [0, 1]");
}

}  // namespace

std::string to_string(SolverFaultKind k) {
  switch (k) {
    case SolverFaultKind::kStall:
      return "stall";
    case SolverFaultKind::kNanPoison:
      return "nan-poison";
    case SolverFaultKind::kCancel:
      return "cancel";
    case SolverFaultKind::kSpuriousError:
      return "spurious-error";
  }
  return "unknown";
}

SolverChaos::SolverChaos(SolverChaosConfig config)
    : config_(std::move(config)) {
  require_probability(config_.stall_prob, "stall_prob");
  require_probability(config_.nan_prob, "nan_prob");
  require_probability(config_.cancel_prob, "cancel_prob");
  require_probability(config_.error_prob, "error_prob");
  const double total = config_.stall_prob + config_.nan_prob +
                       config_.cancel_prob + config_.error_prob;
  MECSCHED_REQUIRE(total <= 1.0 + 1e-12,
                   "solver-chaos fault probabilities must sum to at most 1");
}

chaos::Action SolverChaos::probe(const char* engine, std::size_t rows,
                                 std::size_t cols, std::size_t iteration) {
  SolverFaultKind kind{};
  bool fire = false;

  // Forced fault-matrix entries first: "cancel simplex at pivot 7".
  for (const ForcedSolverFault& f : config_.forced) {
    if (f.iteration == iteration && f.engine == engine) {
      kind = f.kind;
      fire = true;
      break;
    }
  }

  if (!fire) {
    // Pure hash of (seed, site): no global counters, no clocks — the same
    // solve faults identically whatever thread runs it.
    const std::uint64_t h =
        splitmix64(config_.seed ^ hash_cstr(engine) ^
                   splitmix64(static_cast<std::uint64_t>(rows) *
                              0x9e3779b97f4a7c15ull) ^
                   splitmix64(static_cast<std::uint64_t>(cols) *
                              0xc2b2ae3d27d4eb4full) ^
                   splitmix64(static_cast<std::uint64_t>(iteration) *
                              0x165667b19e3779f9ull));
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
    double edge = config_.stall_prob;
    if (u < edge) {
      kind = SolverFaultKind::kStall;
      fire = true;
    } else if (u < (edge += config_.nan_prob)) {
      kind = SolverFaultKind::kNanPoison;
      fire = true;
    } else if (u < (edge += config_.cancel_prob)) {
      kind = SolverFaultKind::kCancel;
      fire = true;
    } else if (u < (edge += config_.error_prob)) {
      kind = SolverFaultKind::kSpuriousError;
      fire = true;
    }
  }

  if (!fire) return chaos::Action::kNone;

  {
    const MutexLock lock(mu_);
    records_.push_back({engine, rows, cols, iteration, kind, 1});
  }
  obs::Registry::global().counter("chaos.injected." + to_string(kind)).add();
  return to_action(kind);
}

std::vector<SolverFaultRecord> SolverChaos::trace() const {
  std::vector<SolverFaultRecord> out;
  {
    const MutexLock lock(mu_);
    out = records_;
  }
  std::sort(out.begin(), out.end(),
            [](const SolverFaultRecord& a, const SolverFaultRecord& b) {
              return std::tie(a.engine, a.rows, a.cols, a.iteration, a.kind) <
                     std::tie(b.engine, b.rows, b.cols, b.iteration, b.kind);
            });
  // Aggregate identical sites (the same solve shape can fault many times
  // across cells); the collapsed form is what must be byte-identical.
  std::vector<SolverFaultRecord> collapsed;
  for (const SolverFaultRecord& r : out) {
    if (!collapsed.empty()) {
      SolverFaultRecord& last = collapsed.back();
      if (last.engine == r.engine && last.rows == r.rows &&
          last.cols == r.cols && last.iteration == r.iteration &&
          last.kind == r.kind) {
        ++last.count;
        continue;
      }
    }
    collapsed.push_back(r);
  }
  return collapsed;
}

std::size_t SolverChaos::injected() const {
  const MutexLock lock(mu_);
  return records_.size();
}

}  // namespace mecsched::sim
