#include "serve/sharder.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"

namespace mecsched::serve {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

double ResidualCapacity::device_at(std::size_t id) const {
  const auto it = std::lower_bound(device_ids.begin(), device_ids.end(), id);
  MECSCHED_REQUIRE(it != device_ids.end() && *it == id,
                   "no residual capacity listed for device " +
                       std::to_string(id));
  return device[static_cast<std::size_t>(it - device_ids.begin())];
}

Sharder::Sharder(const mec::Topology& universe, ShardingOptions options)
    : universe_(&universe) {
  MECSCHED_REQUIRE(options.num_shards >= 1, "num_shards must be >= 1");
  const std::size_t ns = universe.num_base_stations();
  num_shards_ = std::min(options.num_shards, ns);
  station_shard_.resize(ns);
  for (std::size_t b = 0; b < ns; ++b) {
    // Contiguous near-equal blocks; monotone in b, so a shard's cells are
    // a station-id range (the "neighborhood").
    station_shard_[b] = b * num_shards_ / ns;
  }
}

std::size_t Sharder::shard_of_station(std::size_t station) const {
  MECSCHED_REQUIRE(station < station_shard_.size(),
                   "station " + std::to_string(station) + " out of range");
  return station_shard_[station];
}

std::vector<ShardProblem> Sharder::build(
    const Population& population, const ResidualCapacity& residual,
    const std::vector<PendingTask>& batch,
    const std::vector<double>& residual_deadline_s) const {
  const std::size_t ns = universe_->num_base_stations();
  MECSCHED_REQUIRE(residual.station.size() == ns &&
                       residual.device.size() == residual.device_ids.size(),
                   "station residuals must match the universe topology, "
                   "device residuals their ids");
  MECSCHED_REQUIRE(residual_deadline_s.size() == batch.size(),
                   "residual deadlines must align with the batch");

  // Route each task to the shard of its issuer's current cell.
  std::vector<std::vector<std::size_t>> shard_tasks(num_shards_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t issuer = batch[i].task.id.user;
    MECSCHED_REQUIRE(population.up(issuer),
                     "batch task issuer " + std::to_string(issuer) +
                         " is not up (triage must run first)");
    shard_tasks[station_shard_[population.station(issuer)]].push_back(i);
  }

  // Scratch global->local station map, reset per shard.
  std::vector<std::size_t> station_local(ns, kNone);

  std::vector<ShardProblem> problems;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (shard_tasks[s].empty()) continue;

    // Device roster: the issuers and same-shard owners the batch touches,
    // then halo owners (up devices serving external data from another
    // shard); each part sorted by universe id.
    std::vector<std::size_t> roster;
    std::vector<std::size_t> halo;
    for (const std::size_t i : shard_tasks[s]) {
      const mec::Task& t = batch[i].task;
      roster.push_back(t.id.user);
      if (t.external_bytes <= 0.0) continue;
      MECSCHED_REQUIRE(population.up(t.external_owner),
                       "external owner " + std::to_string(t.external_owner) +
                           " is not up (triage must run first)");
      const bool same_shard =
          station_shard_[population.station(t.external_owner)] == s;
      (same_shard ? roster : halo).push_back(t.external_owner);
    }
    for (std::vector<std::size_t>* part : {&roster, &halo}) {
      std::sort(part->begin(), part->end());
      part->erase(std::unique(part->begin(), part->end()), part->end());
    }
    const std::size_t core_devices = roster.size();
    roster.insert(roster.end(), halo.begin(), halo.end());
    // Local id of a roster device: both parts are sorted.
    const auto device_local = [&](std::size_t g) {
      const auto core_end = roster.begin() + core_devices;
      const auto it = std::lower_bound(roster.begin(), core_end, g);
      if (it != core_end && *it == g) {
        return static_cast<std::size_t>(it - roster.begin());
      }
      return static_cast<std::size_t>(
          std::lower_bound(core_end, roster.end(), g) - roster.begin());
    };

    // Station roster: the shard's own block, then halo cells (sorted).
    std::vector<std::size_t> stations;
    for (std::size_t b = 0; b < ns; ++b) {
      if (station_shard_[b] == s) stations.push_back(b);
    }
    const std::size_t core_stations = stations.size();
    {
      std::vector<std::size_t> halo_stations;
      for (const std::size_t g : halo) {
        halo_stations.push_back(population.station(g));
      }
      std::sort(halo_stations.begin(), halo_stations.end());
      halo_stations.erase(
          std::unique(halo_stations.begin(), halo_stations.end()),
          halo_stations.end());
      stations.insert(stations.end(), halo_stations.begin(),
                      halo_stations.end());
    }
    for (std::size_t local = 0; local < stations.size(); ++local) {
      station_local[stations[local]] = local;
    }

    std::vector<mec::BaseStation> shard_stations;
    shard_stations.reserve(stations.size());
    for (std::size_t local = 0; local < stations.size(); ++local) {
      mec::BaseStation bs = universe_->base_station(stations[local]);
      bs.id = local;
      // Halo cells carry zero capacity: their ledger belongs to the
      // owning shard.
      bs.max_resource = local < core_stations &&
                                population.station_up(stations[local])
                            ? std::max(0.0, residual.station[stations[local]])
                            : 0.0;
      shard_stations.push_back(bs);
    }

    std::vector<mec::Device> shard_dev;
    shard_dev.reserve(roster.size());
    for (std::size_t local = 0; local < roster.size(); ++local) {
      const std::size_t g = roster[local];
      mec::Device d = universe_->device(g);
      d.id = local;
      d.base_station = station_local[population.station(g)];
      d.max_resource = local < core_devices
                           ? std::max(0.0, residual.device_at(g))
                           : 0.0;
      d.radio.upload_bps *= population.link_factor(g);
      d.radio.download_bps *= population.link_factor(g);
      shard_dev.push_back(d);
    }

    std::vector<mec::Task> tasks;
    std::vector<std::size_t> task_ids;
    tasks.reserve(shard_tasks[s].size());
    task_ids.reserve(shard_tasks[s].size());
    for (const std::size_t i : shard_tasks[s]) {
      mec::Task t = batch[i].task;
      t.id.user = device_local(t.id.user);
      t.external_owner =
          t.external_bytes > 0.0 ? device_local(t.external_owner) : 0;
      t.deadline_s = residual_deadline_s[i];
      tasks.push_back(std::move(t));
      task_ids.push_back(batch[i].id);
    }

    // Reset the scratch map for the next shard.
    for (const std::size_t b : stations) station_local[b] = kNone;

    problems.push_back(ShardProblem{
        s,
        mec::Topology(std::move(shard_dev), std::move(shard_stations),
                      universe_->params()),
        std::move(tasks), std::move(task_ids), std::move(roster),
        halo.size()});
  }
  return problems;
}

}  // namespace mecsched::serve
