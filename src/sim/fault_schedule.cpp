#include "sim/fault_schedule.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace mecsched::sim {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDeviceFail:
      return "device-fail";
    case FaultKind::kDeviceRecover:
      return "device-recover";
    case FaultKind::kStationFail:
      return "station-fail";
    case FaultKind::kStationRecover:
      return "station-recover";
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kLinkRestore:
      return "link-restore";
  }
  return "unknown";
}

namespace {

std::string describe(const FaultEvent& e) {
  std::ostringstream os;
  os << to_string(e.kind) << " target=" << e.target << " at t=" << e.time_s;
  if (e.kind == FaultKind::kLinkDegrade) os << " factor=" << e.factor;
  return os.str();
}

bool targets_device(FaultKind k) {
  return k == FaultKind::kDeviceFail || k == FaultKind::kDeviceRecover ||
         k == FaultKind::kLinkDegrade || k == FaultKind::kLinkRestore;
}

}  // namespace

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const FaultEvent& e : events_) {
    MECSCHED_REQUIRE(e.time_s >= 0.0, "fault event before t=0: " + describe(e));
    if (e.kind == FaultKind::kLinkDegrade) {
      MECSCHED_REQUIRE(e.factor > 0.0 && e.factor <= 1.0,
                       "link degradation factor must be in (0, 1]: " +
                           describe(e));
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
}

void FaultSchedule::validate_against(std::size_t num_devices,
                                     std::size_t num_stations) const {
  for (const FaultEvent& e : events_) {
    if (targets_device(e.kind)) {
      MECSCHED_REQUIRE(e.target < num_devices,
                       "fault event targets unknown device (" + describe(e) +
                           ", topology has " + std::to_string(num_devices) +
                           " devices)");
    } else {
      MECSCHED_REQUIRE(e.target < num_stations,
                       "fault event targets unknown station (" + describe(e) +
                           ", topology has " + std::to_string(num_stations) +
                           " stations)");
    }
  }
}

bool FaultSchedule::device_up(std::size_t device, double t) const {
  bool up = true;
  for (const FaultEvent& e : events_) {
    if (e.time_s > t) break;
    if (e.target != device) continue;
    if (e.kind == FaultKind::kDeviceFail) up = false;
    if (e.kind == FaultKind::kDeviceRecover) up = true;
  }
  return up;
}

bool FaultSchedule::station_up(std::size_t station, double t) const {
  bool up = true;
  for (const FaultEvent& e : events_) {
    if (e.time_s > t) break;
    if (e.target != station) continue;
    if (e.kind == FaultKind::kStationFail) up = false;
    if (e.kind == FaultKind::kStationRecover) up = true;
  }
  return up;
}

double FaultSchedule::link_factor(std::size_t device, double t) const {
  double factor = 1.0;
  for (const FaultEvent& e : events_) {
    if (e.time_s > t) break;
    if (e.target != device) continue;
    if (e.kind == FaultKind::kLinkDegrade) factor = e.factor;
    if (e.kind == FaultKind::kLinkRestore) factor = 1.0;
  }
  return factor;
}

std::size_t FaultSchedule::device_failures() const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kDeviceFail) ++n;
  }
  return n;
}

std::size_t FaultSchedule::station_failures() const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kStationFail) ++n;
  }
  return n;
}

FaultSchedule FaultSchedule::single_device_failure(std::size_t device,
                                                   double at_s) {
  return FaultSchedule({{at_s, FaultKind::kDeviceFail, device, 1.0}});
}

FaultSchedule FaultSchedule::merged_with(const FaultSchedule& extra) const {
  std::vector<FaultEvent> all = events_;
  all.insert(all.end(), extra.events_.begin(), extra.events_.end());
  return FaultSchedule(std::move(all));
}

}  // namespace mecsched::sim
