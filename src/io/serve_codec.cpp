#include "io/serve_codec.h"

#include <utility>
#include <vector>

#include "io/codec.h"

namespace mecsched::io {
namespace {

std::string kind_name(serve::EventKind k) {
  switch (k) {
    case serve::EventKind::kTaskArrival:
      return "arrival";
    case serve::EventKind::kDeviceJoin:
      return "join";
    case serve::EventKind::kDeviceLeave:
      return "leave";
    case serve::EventKind::kDeviceMigrate:
      return "migrate";
    case serve::EventKind::kStationFail:
      return "station-fail";
    case serve::EventKind::kStationRecover:
      return "station-recover";
    case serve::EventKind::kLinkDegrade:
      return "link-degrade";
    case serve::EventKind::kLinkRestore:
      return "link-restore";
  }
  throw JsonError("unknown serve event kind");
}

serve::EventKind kind_from_name(const std::string& name) {
  if (name == "arrival") return serve::EventKind::kTaskArrival;
  if (name == "join") return serve::EventKind::kDeviceJoin;
  if (name == "leave") return serve::EventKind::kDeviceLeave;
  if (name == "migrate") return serve::EventKind::kDeviceMigrate;
  if (name == "station-fail") return serve::EventKind::kStationFail;
  if (name == "station-recover") return serve::EventKind::kStationRecover;
  if (name == "link-degrade") return serve::EventKind::kLinkDegrade;
  if (name == "link-restore") return serve::EventKind::kLinkRestore;
  throw JsonError("unknown serve event kind: " + name);
}

}  // namespace

Json serve_event_to_json(const serve::Event& event) {
  JsonObject o;
  o["time_s"] = event.time_s;
  o["kind"] = kind_name(event.kind);
  switch (event.kind) {
    case serve::EventKind::kTaskArrival:
      o["task"] = task_to_json(event.task);
      break;
    case serve::EventKind::kDeviceLeave:
    case serve::EventKind::kLinkRestore:
      o["device"] = event.device;
      break;
    case serve::EventKind::kDeviceJoin:
    case serve::EventKind::kDeviceMigrate:
      o["device"] = event.device;
      o["station"] = event.station;
      break;
    case serve::EventKind::kStationFail:
    case serve::EventKind::kStationRecover:
      o["station"] = event.station;
      break;
    case serve::EventKind::kLinkDegrade:
      o["device"] = event.device;
      o["factor"] = event.factor;
      break;
  }
  return Json(std::move(o));
}

serve::Event serve_event_from_json(const Json& j) {
  const double time_s = j.at("time_s").as_number();
  switch (kind_from_name(j.at("kind").as_string())) {
    case serve::EventKind::kTaskArrival:
      return serve::Event::arrival(time_s, task_from_json(j.at("task")));
    case serve::EventKind::kDeviceJoin:
      return serve::Event::join(time_s, j.at("device").as_index(),
                                j.at("station").as_index());
    case serve::EventKind::kDeviceLeave:
      return serve::Event::leave(time_s, j.at("device").as_index());
    case serve::EventKind::kDeviceMigrate:
      return serve::Event::migrate(time_s, j.at("device").as_index(),
                                   j.at("station").as_index());
    case serve::EventKind::kStationFail:
      return serve::Event::station_fail(time_s, j.at("station").as_index());
    case serve::EventKind::kStationRecover:
      return serve::Event::station_recover(time_s,
                                           j.at("station").as_index());
    case serve::EventKind::kLinkDegrade:
      return serve::Event::link_degrade(time_s, j.at("device").as_index(),
                                        j.at("factor").as_number());
    case serve::EventKind::kLinkRestore:
      return serve::Event::link_restore(time_s, j.at("device").as_index());
  }
  throw JsonError("unknown serve event kind");
}

Json serve_workload_to_json(const workload::ServeWorkload& workload) {
  JsonObject root;
  root["topology"] = topology_to_json(workload.universe);
  JsonArray events;
  events.reserve(workload.trace.size());
  for (const serve::Event& e : workload.trace.events()) {
    events.push_back(serve_event_to_json(e));
  }
  root["events"] = Json(std::move(events));
  return Json(std::move(root));
}

workload::ServeWorkload serve_workload_from_json(const Json& j) {
  mec::Topology universe = topology_from_json(j.at("topology"));
  std::vector<serve::Event> events;
  for (const Json& ej : j.at("events").as_array()) {
    events.push_back(serve_event_from_json(ej));
  }
  serve::Trace trace(std::move(events));
  trace.validate_against(universe.num_devices(), universe.num_base_stations());
  return workload::ServeWorkload{std::move(universe), std::move(trace)};
}

}  // namespace mecsched::io
