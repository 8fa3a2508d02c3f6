// Poisson arrival process on top of the holistic scenario generator — the
// workload for online scheduling (serve/daemon.h) — and its conversion,
// together with a fault schedule, into a serve trace.
#pragma once

#include <vector>

#include "mec/task.h"
#include "serve/daemon.h"
#include "serve/event.h"
#include "sim/fault_schedule.h"
#include "workload/scenario.h"

namespace mecsched::workload {

struct TimedTask {
  mec::Task task;       // deadline_s is *relative* to the release time
  double release_s = 0.0;
};

struct ArrivalConfig {
  ScenarioConfig scenario{};
  // Mean arrivals per second (exponential inter-arrival gaps).
  double arrival_rate_per_s = 20.0;
};

struct TimedScenario {
  mec::Topology topology;
  std::vector<TimedTask> tasks;  // sorted by release time
};

TimedScenario make_timed_scenario(const ArrivalConfig& config);

// The scenario's tasks and `faults` as one serve trace over the scenario's
// topology: task i is the trace's i-th arrival (tasks must be sorted by
// release time). Device failure/recovery become leave/join at the device's
// home station; station and link events map one to one. Throws ModelError
// for unsorted tasks or fault targets outside the topology.
serve::Trace to_serve_trace(const TimedScenario& scenario,
                            const sim::FaultSchedule& faults = {});

// Mean response time (finish - release) over the tasks a serve run of
// to_serve_trace(scenario) placed; 0 when none was. `outcomes` as
// ServeDaemon::run fills them.
double mean_response_s(const TimedScenario& scenario,
                       const std::vector<serve::TaskOutcome>& outcomes);

}  // namespace mecsched::workload
