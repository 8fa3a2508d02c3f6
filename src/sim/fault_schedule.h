// Timed fault injection for the discrete-event simulator and, converted to
// a serve trace (workload/arrivals.h), for the serve daemon.
//
// The paper's Sec. II model is quasi-static: devices, tasks and shared data
// are fixed for the whole horizon. Real data-shared MEC systems churn — the
// data owners are mobile devices that leave coverage and come back, cells go
// down, links fade. A FaultSchedule is the ordered timeline of such events:
//
//   * device failure / recovery   — the device's CPU and radio vanish and
//     reappear; stages *starting* while it is down never run (in-flight
//     stages complete: a transmission underway is already in the air),
//   * base-station outage / recovery — the station's CPU and its backhaul /
//     WAN forwarding stop serving its cluster,
//   * link degradation            — a device's radio rates are multiplied by
//     `factor` (< 1 stretches transfer time and energy) until restored.
//
// The schedule is immutable once built (events sorted by time, validated);
// state queries answer "is X up at time t" by replaying the prefix of
// events with time <= t, so an event taking effect exactly at t is already
// visible at t — matching the simulator's historical "start >= failure
// instant" semantics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mecsched::sim {

enum class FaultKind {
  kDeviceFail = 0,
  kDeviceRecover = 1,
  kStationFail = 2,
  kStationRecover = 3,
  kLinkDegrade = 4,   // device link rates *= factor (factor in (0, 1])
  kLinkRestore = 5,   // factor back to 1
};

std::string to_string(FaultKind k);

struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kDeviceFail;
  std::size_t target = 0;  // device id, or station id for station events
  double factor = 1.0;     // kLinkDegrade only
};

class FaultSchedule {
 public:
  FaultSchedule() = default;
  // Sorts by time (stable: simultaneous events keep insertion order) and
  // validates factors; target ids are validated against a topology at the
  // point of use (validate_against below).
  explicit FaultSchedule(std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  // Throws ModelError (with the offending event spelled out) if any event
  // targets a device/station outside [0, num_devices) / [0, num_stations).
  void validate_against(std::size_t num_devices,
                        std::size_t num_stations) const;

  // ---- State queries. Events with time <= t have taken effect at t.
  bool device_up(std::size_t device, double t) const;
  bool station_up(std::size_t station, double t) const;
  // Multiplier on the device's radio rates at t (1.0 = healthy).
  double link_factor(std::size_t device, double t) const;

  // Counts of failure events (not recoveries), for reporting.
  std::size_t device_failures() const;
  std::size_t station_failures() const;

  // The legacy one-shot injection of SimOptions{failed_device,
  // failure_time_s} as a schedule.
  static FaultSchedule single_device_failure(std::size_t device, double at_s);

  // This schedule plus `extra`'s events, re-sorted.
  FaultSchedule merged_with(const FaultSchedule& extra) const;

 private:
  std::vector<FaultEvent> events_;  // sorted by time_s
};

}  // namespace mecsched::sim
