#include "io/shared_codec.h"

#include "io/codec.h"

namespace mecsched::io {
namespace {

Json item_set_to_json(const dta::ItemSet& items) {
  JsonArray arr;
  arr.reserve(items.size());
  for (std::size_t r : items) arr.emplace_back(r);
  return Json(std::move(arr));
}

dta::ItemSet item_set_from_json(const Json& j) {
  dta::ItemSet out;
  for (const Json& v : j.as_array()) {
    out.push_back(v.as_index());
  }
  return out;
}

}  // namespace

Json divisible_task_to_json(const dta::DivisibleTask& t) {
  JsonObject o;
  o["user"] = t.id.user;
  o["index"] = t.id.index;
  o["items"] = item_set_to_json(t.items);
  o["op_bytes"] = t.op_bytes;
  o["cycles_per_byte"] = t.cycles_per_byte;
  o["result_kind"] = std::string(
      t.result_kind == mec::ResultSizeKind::kProportional ? "proportional"
                                                          : "constant");
  o["result_ratio"] = t.result_ratio;
  o["result_const_bytes"] = t.result_const_bytes;
  o["resource"] = t.resource;
  o["deadline_s"] = t.deadline_s;
  return Json(std::move(o));
}

dta::DivisibleTask divisible_task_from_json(const Json& j) {
  dta::DivisibleTask t;
  t.id.user = j.at("user").as_index();
  t.id.index = j.at("index").as_index();
  t.items = item_set_from_json(j.at("items"));
  t.op_bytes = j.number_or("op_bytes", t.op_bytes);
  t.cycles_per_byte = j.number_or("cycles_per_byte", t.cycles_per_byte);
  if (j.contains("result_kind")) {
    const std::string& kind = j.at("result_kind").as_string();
    if (kind == "proportional") {
      t.result_kind = mec::ResultSizeKind::kProportional;
    } else if (kind == "constant") {
      t.result_kind = mec::ResultSizeKind::kConstant;
    } else {
      throw JsonError("unknown result_kind: " + kind);
    }
  }
  t.result_ratio = j.number_or("result_ratio", t.result_ratio);
  t.result_const_bytes =
      j.number_or("result_const_bytes", t.result_const_bytes);
  t.resource = j.number_or("resource", t.resource);
  t.deadline_s = j.at("deadline_s").as_number();
  return t;
}

Json shared_scenario_to_json(const dta::SharedDataScenario& scenario) {
  JsonObject root;
  root["topology"] = topology_to_json(scenario.topology);
  JsonArray items;
  for (std::size_t r = 0; r < scenario.universe.num_items(); ++r) {
    items.emplace_back(scenario.universe.item_size(r));
  }
  root["item_bytes"] = Json(std::move(items));
  JsonArray ownership;
  for (const dta::ItemSet& d : scenario.ownership) {
    ownership.push_back(item_set_to_json(d));
  }
  root["ownership"] = Json(std::move(ownership));
  JsonArray tasks;
  for (const dta::DivisibleTask& t : scenario.tasks) {
    tasks.push_back(divisible_task_to_json(t));
  }
  root["tasks"] = Json(std::move(tasks));
  return Json(std::move(root));
}

dta::SharedDataScenario shared_scenario_from_json(const Json& j) {
  std::vector<double> item_bytes;
  for (const Json& v : j.at("item_bytes").as_array()) {
    item_bytes.push_back(v.as_number());
  }
  std::vector<dta::ItemSet> ownership;
  for (const Json& d : j.at("ownership").as_array()) {
    ownership.push_back(item_set_from_json(d));
  }
  std::vector<dta::DivisibleTask> tasks;
  for (const Json& t : j.at("tasks").as_array()) {
    tasks.push_back(divisible_task_from_json(t));
  }
  dta::SharedDataScenario out{topology_from_json(j.at("topology")),
                              dta::DataUniverse(std::move(item_bytes)),
                              std::move(ownership), std::move(tasks)};
  out.validate();
  return out;
}

Json dta_result_to_json(const dta::DtaResult& result) {
  JsonObject o;
  o["total_energy_j"] = result.total_energy_j;
  o["compute_energy_j"] = result.compute_energy_j;
  o["coordination_energy_j"] = result.coordination_energy_j;
  o["processing_time_s"] = result.processing_time_s;
  o["involved_devices"] = result.involved_devices;
  o["rearranged_tasks"] = result.rearranged.size();
  JsonArray shares;
  for (const dta::ItemSet& s : result.coverage.assigned) {
    shares.emplace_back(s.size());
  }
  o["share_sizes"] = Json(std::move(shares));
  return Json(std::move(o));
}

}  // namespace mecsched::io
