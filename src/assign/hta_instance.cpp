#include "assign/hta_instance.h"

#include "common/error.h"
#include "common/hash.h"

namespace mecsched::assign {

HtaInstance::HtaInstance(const mec::Topology& topology,
                         std::vector<mec::Task> tasks)
    : topology_(&topology), tasks_(std::move(tasks)) {
  const mec::CostModel model(topology);
  costs_.reserve(tasks_.size());
  tasks_by_cluster_.resize(topology.num_base_stations());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const mec::Task& task = tasks_[t];
    MECSCHED_REQUIRE(task.id.user < topology.num_devices(),
                     "task " + std::to_string(t) + " issued by unknown device " +
                         std::to_string(task.id.user) + " (topology has " +
                         std::to_string(topology.num_devices()) + " devices)");
    MECSCHED_REQUIRE(
        task.external_owner < topology.num_devices(),
        "task " + std::to_string(t) + ": external data owned by unknown device " +
            std::to_string(task.external_owner) + " (topology has " +
            std::to_string(topology.num_devices()) + " devices)");
    MECSCHED_REQUIRE(task.local_bytes >= 0.0 && task.external_bytes >= 0.0,
                     "task " + std::to_string(t) + ": negative data size (local " +
                         std::to_string(task.local_bytes) + " B, external " +
                         std::to_string(task.external_bytes) + " B)");
    MECSCHED_REQUIRE(task.resource >= 0.0,
                     "task " + std::to_string(t) +
                         ": negative resource occupation (" +
                         std::to_string(task.resource) + ")");
    costs_.push_back(model.evaluate(task));
    tasks_by_cluster_[topology.device(task.id.user).base_station].push_back(t);
  }
}

bool HtaInstance::schedulable(std::size_t t) const {
  for (mec::Placement p : mec::kAllPlacements) {
    if (meets_deadline(t, p)) return true;
  }
  return false;
}

std::uint64_t fingerprint(const HtaInstance& instance) {
  const mec::Topology& topo = instance.topology();
  std::uint64_t h = hash_mix(topo.num_devices(), topo.num_base_stations());
  for (std::size_t d = 0; d < topo.num_devices(); ++d) {
    const mec::Device& dev = topo.device(d);
    h = hash_mix(h, dev.base_station);
    h = hash_double(h, dev.max_resource);
  }
  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    h = hash_double(h, topo.base_station(b).max_resource);
  }
  h = hash_mix(h, instance.num_tasks());
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const mec::Task& task = instance.task(t);
    h = hash_mix(h, task.id.user);
    h = hash_double(h, task.resource);
    h = hash_double(h, task.deadline_s);
    for (const mec::Placement p : mec::kAllPlacements) {
      h = hash_double(h, instance.latency(t, p));
      h = hash_double(h, instance.energy(t, p));
    }
  }
  return h;
}

}  // namespace mecsched::assign
