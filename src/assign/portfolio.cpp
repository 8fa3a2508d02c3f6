#include "assign/portfolio.h"

#include <limits>

#include "assign/baselines.h"
#include "assign/evaluator.h"
#include "audit/assignment_audit.h"
#include "assign/hgos.h"
#include "assign/lp_hta.h"
#include "common/error.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::assign {

Portfolio::Portfolio(std::vector<std::shared_ptr<Assigner>> candidates)
    : candidates_(std::move(candidates)) {
  MECSCHED_REQUIRE(!candidates_.empty(), "portfolio needs candidates");
}

Portfolio Portfolio::standard() {
  std::vector<std::shared_ptr<Assigner>> c;
  c.push_back(std::make_shared<LpHta>());
  c.push_back(std::make_shared<Hgos>());
  c.push_back(std::make_shared<LocalFirst>());
  c.push_back(std::make_shared<AllOffload>());
  return Portfolio(std::move(c));
}

Assignment Portfolio::assign(const HtaInstance& instance) const {
  PortfolioReport unused;
  return assign_with_report(instance, unused);
}

Assignment Portfolio::assign_with_report(const HtaInstance& instance,
                                         PortfolioReport& report) const {
  const obs::ScopedTimer span("portfolio.assign", "assign");
  report = PortfolioReport{};

  struct Score {
    std::size_t unsatisfied = std::numeric_limits<std::size_t>::max();
    bool infeasible = true;
    double energy = std::numeric_limits<double>::infinity();

    bool better_than(const Score& o) const {
      if (unsatisfied != o.unsatisfied) return unsatisfied < o.unsatisfied;
      if (infeasible != o.infeasible) return !infeasible;
      return energy < o.energy;
    }
  };

  Assignment best;
  Score best_score;
  std::string last_error;
  obs::Registry& reg = obs::Registry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  for (const auto& candidate : candidates_) {
    Assignment plan;
    try {
      const obs::ScopedTimer candidate_span(
          "portfolio.candidate", "assign",
          tracer.enabled() ? "\"name\":\"" + candidate->name() + "\""
                           : std::string());
      plan = candidate->assign(instance);
    } catch (const SolverError& e) {
      // A solver blowup in one candidate must not take down the portfolio:
      // skip it and let the others compete.
      ++report.candidates_failed;
      static obs::Counter& failed =
          obs::Registry::global().counter("portfolio.candidates_failed");
      failed.add();
      last_error = candidate->name() + ": " + e.what();
      continue;
    }
    static obs::Counter& tried =
        obs::Registry::global().counter("portfolio.candidates_tried");
    tried.add();
    const Metrics m = evaluate(instance, plan);
    Score score;
    score.unsatisfied = m.cancelled + m.deadline_violations;
    score.infeasible = !check_feasibility(instance, plan).ok;
    score.energy = m.total_energy_j;
    ++report.candidates_tried;
    if (score.better_than(best_score)) {
      best_score = score;
      best = std::move(plan);
      report.winner = candidate->name();
      report.winner_energy_j = m.total_energy_j;
    }
  }
  if (report.candidates_tried == 0) {
    throw SolverError("portfolio: every candidate failed; last error: " +
                      last_error);
  }
  reg.counter("portfolio.won." + report.winner).add();
  tracer.instant("portfolio.winner", "assign",
                 tracer.enabled() ? "\"name\":\"" + report.winner + "\""
                                  : std::string());
  // Shape-only contract: the winner was audited by the candidate that
  // produced it, and a portfolio may legitimately return the least bad of
  // several constraint-violating plans.
  audit::check_assignment(instance, best,
                          {.deadlines = false, .capacity = false},
                          "portfolio");
  return best;
}

}  // namespace mecsched::assign
