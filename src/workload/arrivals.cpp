#include "workload/arrivals.h"

#include "common/error.h"

namespace mecsched::workload {

TimedScenario make_timed_scenario(const ArrivalConfig& config) {
  MECSCHED_REQUIRE(config.arrival_rate_per_s > 0.0,
                   "arrival rate must be positive");
  Scenario base = make_scenario(config.scenario);

  // Release times from a fresh stream so the static task attributes stay
  // identical to the quasi-static scenario with the same seed (the online
  // vs offline comparison needs that).
  Rng rng = Rng(config.scenario.seed).fork(0x4152'5249'5645ULL);  // "ARRIVE"
  TimedScenario out{std::move(base.topology), {}};
  out.tasks.reserve(base.tasks.size());
  double clock = 0.0;
  for (const mec::Task& task : base.tasks) {
    clock += rng.exponential(1.0 / config.arrival_rate_per_s);
    out.tasks.push_back(TimedTask{task, clock});
  }
  return out;
}

serve::Trace to_serve_trace(const TimedScenario& scenario,
                            const sim::FaultSchedule& faults) {
  const mec::Topology& topo = scenario.topology;
  faults.validate_against(topo.num_devices(), topo.num_base_stations());
  std::vector<serve::Event> events;
  events.reserve(scenario.tasks.size() + faults.size());
  for (std::size_t i = 0; i < scenario.tasks.size(); ++i) {
    const TimedTask& t = scenario.tasks[i];
    MECSCHED_REQUIRE(i == 0 || scenario.tasks[i - 1].release_s <= t.release_s,
                     "timed tasks must be sorted by release time (task " +
                         std::to_string(i) + ")");
    events.push_back(serve::Event::arrival(t.release_s, t.task));
  }
  for (const sim::FaultEvent& f : faults.events()) {
    switch (f.kind) {
      case sim::FaultKind::kDeviceFail:
        events.push_back(serve::Event::leave(f.time_s, f.target));
        break;
      case sim::FaultKind::kDeviceRecover:
        events.push_back(serve::Event::join(
            f.time_s, f.target, topo.device(f.target).base_station));
        break;
      case sim::FaultKind::kStationFail:
        events.push_back(serve::Event::station_fail(f.time_s, f.target));
        break;
      case sim::FaultKind::kStationRecover:
        events.push_back(serve::Event::station_recover(f.time_s, f.target));
        break;
      case sim::FaultKind::kLinkDegrade:
        events.push_back(
            serve::Event::link_degrade(f.time_s, f.target, f.factor));
        break;
      case sim::FaultKind::kLinkRestore:
        events.push_back(serve::Event::link_restore(f.time_s, f.target));
        break;
    }
  }
  return serve::Trace(std::move(events));
}

double mean_response_s(const TimedScenario& scenario,
                       const std::vector<serve::TaskOutcome>& outcomes) {
  MECSCHED_REQUIRE(outcomes.size() == scenario.tasks.size(),
                   "one outcome per timed task expected");
  double sum = 0.0;
  std::size_t placed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].fate != serve::DecisionKind::kDecide) continue;
    sum += outcomes[i].finish_s - scenario.tasks[i].release_s;
    ++placed;
  }
  return placed == 0 ? 0.0 : sum / static_cast<double>(placed);
}

}  // namespace mecsched::workload
