#include "serve/sharder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "assign/hgos.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/error.h"
#include "mec/cost_model.h"
#include "mec/parameters.h"
#include "serve/population.h"

namespace mecsched::serve {
namespace {

// 8 devices round-robin over 4 stations: device i lives at station i % 4.
mec::Topology make_universe(std::size_t num_devices = 8,
                            std::size_t num_stations = 4) {
  std::vector<mec::Device> devices(num_devices);
  for (std::size_t i = 0; i < num_devices; ++i) {
    devices[i].id = i;
    devices[i].base_station = i % num_stations;
    devices[i].cpu_hz = 1.5e9;
    devices[i].radio = mec::kWiFi;
    devices[i].max_resource = 8.0;
  }
  std::vector<mec::BaseStation> stations(num_stations);
  for (std::size_t b = 0; b < num_stations; ++b) {
    stations[b].id = b;
    stations[b].cpu_hz = mec::SystemParameters{}.base_station_hz;
    stations[b].max_resource = 40.0;
  }
  return mec::Topology(std::move(devices), std::move(stations),
                       mec::SystemParameters{});
}

PendingTask pending(std::size_t id, std::size_t user, std::size_t owner,
                    double external_bytes) {
  PendingTask p;
  p.id = id;
  p.task.id = {user, 0};
  p.task.local_bytes = 500e3;
  p.task.external_bytes = external_bytes;
  p.task.external_owner = owner;
  p.task.resource = 1.0;
  p.task.deadline_s = 10.0;
  return p;
}

// Every device and station at its universe capacity.
ResidualCapacity full_residual(const mec::Topology& topo) {
  ResidualCapacity r;
  for (std::size_t i = 0; i < topo.num_devices(); ++i) {
    r.device_ids.push_back(i);
    r.device.push_back(topo.device(i).max_resource);
  }
  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    r.station.push_back(topo.base_station(b).max_resource);
  }
  return r;
}

TEST(SharderTest, RejectsZeroShardsAndClampsExcess) {
  const mec::Topology universe = make_universe();
  EXPECT_THROW(Sharder(universe, {0}), ModelError);
  EXPECT_EQ(Sharder(universe, {100}).num_shards(), 4u);
}

TEST(SharderTest, StationBlocksAreContiguousAndMonotone) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {2});
  EXPECT_EQ(sharder.shard_of_station(0), 0u);
  EXPECT_EQ(sharder.shard_of_station(1), 0u);
  EXPECT_EQ(sharder.shard_of_station(2), 1u);
  EXPECT_EQ(sharder.shard_of_station(3), 1u);
}

TEST(SharderTest, RoutesTaskByIssuersCurrentCell) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {2});
  Population pop(universe);
  // Device 0 lives at station 0 (shard 0) but has migrated to station 3.
  pop.apply(Event::migrate(0.0, 0, 3));

  const PendingTask p = pending(0, 0, 0, 0.0);
  const std::vector<PendingTask> batch{p};
  const auto problems =
      sharder.build(pop, full_residual(universe), batch, {10.0});
  ASSERT_EQ(problems.size(), 1u);  // empty shard 0 omitted
  EXPECT_EQ(problems[0].shard, 1u);
  ASSERT_EQ(problems[0].task_ids.size(), 1u);
  EXPECT_EQ(problems[0].task_ids[0], 0u);
}

TEST(SharderTest, HaloOwnerPricesCrossShardFetchExactly) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {2});
  const Population pop(universe);
  // Issuer 0 sits in shard 0; its external data lives on device 2 whose
  // cell (station 2) is in shard 1, so the owner comes in as a halo copy.
  const PendingTask p = pending(0, 0, 2, 200e3);
  const std::vector<PendingTask> batch{p};
  const auto problems =
      sharder.build(pop, full_residual(universe), batch, {10.0});
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];
  EXPECT_EQ(shard.shard, 0u);
  ASSERT_EQ(shard.halo_devices, 1u);

  // The halo entry is the trailing device, maps back to universe id 2 and
  // carries no schedulable capacity.
  const std::size_t halo = shard.topology.num_devices() - 1;
  EXPECT_EQ(shard.device_global[halo], 2u);
  EXPECT_DOUBLE_EQ(shard.topology.device(halo).max_resource, 0.0);

  // Cost parity: the shard topology prices every placement of the task
  // exactly as the universe does — the halo carries the owner's radio and
  // its cell, so the cross-neighborhood fetch leg is identical.
  const mec::TaskCosts in_universe = mec::CostModel(universe).evaluate(p.task);
  ASSERT_EQ(shard.tasks.size(), 1u);
  const mec::TaskCosts in_shard =
      mec::CostModel(shard.topology).evaluate(shard.tasks[0]);
  for (const mec::Placement placement : mec::kAllPlacements) {
    EXPECT_DOUBLE_EQ(in_shard.latency(placement),
                     in_universe.latency(placement));
    EXPECT_DOUBLE_EQ(in_shard.energy(placement),
                     in_universe.energy(placement));
  }
}

TEST(SharderTest, ResidualCapacitiesOverrideTheUniverseCaps) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {2});
  const Population pop(universe);
  ResidualCapacity residual = full_residual(universe);
  residual.device[0] = 2.5;
  residual.station[0] = 7.0;
  const PendingTask p = pending(0, 0, 0, 0.0);
  const std::vector<PendingTask> batch{p};
  const auto problems = sharder.build(pop, residual, batch, {10.0});
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];
  // Local device 0 of shard 0 is universe device 0.
  ASSERT_EQ(shard.device_global[0], 0u);
  EXPECT_DOUBLE_EQ(shard.topology.device(0).max_resource, 2.5);
  EXPECT_DOUBLE_EQ(shard.topology.base_station(0).max_resource, 7.0);
}

TEST(SharderTest, DownDevicesAreExcludedFromTheShardTopology) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {2});
  Population pop(universe);
  pop.apply(Event::leave(0.0, 4));  // station 0, shard 0
  const PendingTask p = pending(0, 0, 0, 0.0);
  const std::vector<PendingTask> batch{p};
  const auto problems =
      sharder.build(pop, full_residual(universe), batch, {10.0});
  ASSERT_EQ(problems.size(), 1u);
  for (const std::size_t global : problems[0].device_global) {
    EXPECT_NE(global, 4u);
  }
}

TEST(SharderTest, DownStationsAndFadedLinksArePricedAsTheyAreNow) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {1});
  Population pop(universe);
  pop.apply(Event::station_fail(0.0, 2));
  pop.apply(Event::link_degrade(0.0, 1, 0.5));
  // Device 1, the faded one, issues a task of its own.
  const PendingTask p0 = pending(0, 0, 0, 0.0);
  const PendingTask p1 = pending(1, 1, 1, 0.0);
  const std::vector<PendingTask> batch{p0, p1};
  const auto problems =
      sharder.build(pop, full_residual(universe), batch, {10.0, 10.0});
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];
  const mec::Topology& topo = shard.topology;
  EXPECT_DOUBLE_EQ(topo.base_station(2).max_resource, 0.0);
  EXPECT_DOUBLE_EQ(topo.base_station(1).max_resource, 40.0);
  ASSERT_EQ(shard.device_global, (std::vector<std::size_t>{0, 1}));
  ASSERT_EQ(shard.tasks[1].id.user, 1u);
  const mec::Device& faded = topo.device(shard.tasks[1].id.user);
  EXPECT_DOUBLE_EQ(faded.radio.upload_bps,
                   0.5 * universe.device(1).radio.upload_bps);
  EXPECT_DOUBLE_EQ(faded.radio.download_bps,
                   0.5 * universe.device(1).radio.download_bps);
  EXPECT_EQ(topo.device(shard.tasks[0].id.user).radio.upload_bps,
            universe.device(0).radio.upload_bps);  // x1.0 is exact

  // The faded radio is what the task is priced at: its edge placement
  // uploads the local data at half rate.
  mec::Task as_issued = p1.task;
  const mec::TaskCosts nominal = mec::CostModel(universe).evaluate(as_issued);
  const mec::TaskCosts faded_cost =
      mec::CostModel(topo).evaluate(shard.tasks[1]);
  EXPECT_GT(faded_cost.latency(mec::Placement::kEdge),
            nominal.latency(mec::Placement::kEdge));
  EXPECT_DOUBLE_EQ(faded_cost.latency(mec::Placement::kLocal),
                   nominal.latency(mec::Placement::kLocal));
}

TEST(SharderTest, RosterIsTouchedDevicesInAscendingIdThenHalo) {
  const mec::Topology universe = make_universe(12, 4);
  const Sharder sharder(universe, {2});  // shard 0 = stations 0 and 1
  const Population pop(universe);
  // Issuers arrive out of id order; device 9 (station 1) is a same-shard
  // owner that issues nothing, devices 2 and 7 (stations 2, 3) are halo
  // owners, device 5 owns its own data. Device 1, in shard 0 but not
  // touched by the batch, stays out.
  const PendingTask a = pending(0, 8, 2, 200e3);
  const PendingTask b = pending(1, 0, 0, 0.0);
  const PendingTask c = pending(2, 4, 9, 200e3);
  const PendingTask d = pending(3, 0, 7, 200e3);
  const PendingTask e = pending(4, 5, 5, 200e3);
  const std::vector<PendingTask> batch{a, b, c, d, e};
  const auto problems = sharder.build(pop, full_residual(universe), batch,
                                      std::vector<double>(batch.size(), 10.0));
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];
  EXPECT_EQ(shard.device_global,
            (std::vector<std::size_t>{0, 4, 5, 8, 9, 2, 7}));
  EXPECT_EQ(shard.halo_devices, 2u);
  EXPECT_EQ(shard.topology.num_devices(), 7u);
  // Tasks keep batch order and point at their relabelled devices.
  ASSERT_EQ(shard.tasks.size(), batch.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    EXPECT_EQ(shard.task_ids[t], batch[t].id);
    EXPECT_EQ(shard.device_global[shard.tasks[t].id.user],
              batch[t].task.id.user);
    if (batch[t].task.external_bytes > 0.0) {
      EXPECT_EQ(shard.device_global[shard.tasks[t].external_owner],
                batch[t].task.external_owner);
    }
  }
  // Core devices keep their residual; halo owners carry none.
  for (std::size_t local = 0; local < shard.device_global.size(); ++local) {
    const bool halo = local >= shard.device_global.size() - shard.halo_devices;
    EXPECT_DOUBLE_EQ(shard.topology.device(local).max_resource,
                     halo ? 0.0 : 8.0);
  }
}

// The shard a roster of every up device in the neighborhood would give,
// built independently of the sharder: core devices in ascending id, then
// the halo owners, each priced at its residual and current link.
struct FullShard {
  mec::Topology topology;
  std::vector<mec::Task> tasks;
};

FullShard full_population_shard(const mec::Topology& universe,
                                const Population& pop,
                                const ResidualCapacity& residual,
                                const std::vector<std::size_t>& core_stations,
                                const std::vector<PendingTask>& batch,
                                const std::vector<double>& deadlines,
                                const std::vector<std::size_t>& halo,
                                const std::vector<std::size_t>& halo_stations) {
  std::vector<std::size_t> stations = core_stations;
  stations.insert(stations.end(), halo_stations.begin(), halo_stations.end());
  const auto station_local = [&](std::size_t b) {
    return static_cast<std::size_t>(
        std::find(stations.begin(), stations.end(), b) - stations.begin());
  };
  std::vector<std::size_t> roster;
  for (std::size_t g = 0; g < universe.num_devices(); ++g) {
    const bool core = std::find(core_stations.begin(), core_stations.end(),
                                pop.station(g)) != core_stations.end();
    if (pop.up(g) && core) roster.push_back(g);
  }
  const std::size_t core_devices = roster.size();
  roster.insert(roster.end(), halo.begin(), halo.end());
  const auto device_local = [&](std::size_t g) {
    return static_cast<std::size_t>(
        std::find(roster.begin(), roster.end(), g) - roster.begin());
  };

  std::vector<mec::Device> devices;
  for (std::size_t local = 0; local < roster.size(); ++local) {
    mec::Device d = universe.device(roster[local]);
    d.id = local;
    d.base_station = station_local(pop.station(roster[local]));
    d.max_resource =
        local < core_devices ? residual.device[roster[local]] : 0.0;
    d.radio.upload_bps *= pop.link_factor(roster[local]);
    d.radio.download_bps *= pop.link_factor(roster[local]);
    devices.push_back(d);
  }
  std::vector<mec::BaseStation> cells;
  for (std::size_t local = 0; local < stations.size(); ++local) {
    mec::BaseStation bs = universe.base_station(stations[local]);
    bs.id = local;
    bs.max_resource =
        local < core_stations.size() ? residual.station[stations[local]] : 0.0;
    cells.push_back(bs);
  }
  std::vector<mec::Task> tasks;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    mec::Task t = batch[i].task;
    t.id.user = device_local(t.id.user);
    t.external_owner =
        t.external_bytes > 0.0 ? device_local(t.external_owner) : 0;
    t.deadline_s = deadlines[i];
    tasks.push_back(t);
  }
  return {mec::Topology(std::move(devices), std::move(cells),
                        universe.params()),
          std::move(tasks)};
}

TEST(SharderTest, TouchedRosterSolvesLikeTheFullNeighborhood) {
  const mec::Topology universe = make_universe(24, 4);
  const Sharder sharder(universe, {2});  // shard 0 = stations 0 and 1
  Population pop(universe);
  pop.apply(Event::link_degrade(0.0, 4, 0.4));
  pop.apply(Event::leave(0.0, 13));  // an untouched core device is down
  ResidualCapacity residual = full_residual(universe);
  residual.device[0] = 1.5;  // a tight device row
  residual.device[4] = 2.5;
  residual.station[0] = 3.0;  // a tight station row
  residual.station[1] = 2.0;

  // Shard 0 devices: i % 4 in {0, 1}. Devices 0 and 4 issue several
  // tasks; 9 owns data for 21 in the same shard and issues nothing; 2 and
  // 7 (stations 2, 3) are halo owners.
  std::vector<PendingTask> batch;
  const std::size_t issuers[] = {0, 4, 0, 5, 4, 0, 16, 21, 4, 0};
  const std::size_t owners[] = {9, 2, 0, 7, 4, 2, 16, 9, 7, 9};
  for (std::size_t i = 0; i < std::size(issuers); ++i) {
    PendingTask p = pending(i, issuers[i], owners[i],
                            static_cast<double>(i % 3) * 150e3);
    p.task.local_bytes = 300e3 + 100e3 * static_cast<double>(i % 4);
    p.task.resource = 1.0;
    batch.push_back(p);
  }
  const std::vector<double> deadlines(batch.size(), 2.0);

  const auto problems = sharder.build(pop, residual, batch, deadlines);
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];
  ASSERT_GT(shard.halo_devices, 0u);
  const std::vector<std::size_t> halo(
      shard.device_global.end() - shard.halo_devices,
      shard.device_global.end());
  const FullShard full = full_population_shard(
      universe, pop, residual, {0, 1}, batch, deadlines, halo, {2, 3});
  ASSERT_GT(full.topology.num_devices(), shard.topology.num_devices());

  const assign::HtaInstance touched(shard.topology, shard.tasks);
  const assign::HtaInstance whole(full.topology, full.tasks);
  ASSERT_EQ(touched.num_tasks(), whole.num_tasks());
  for (std::size_t t = 0; t < touched.num_tasks(); ++t) {
    for (const mec::Placement pl : mec::kAllPlacements) {
      EXPECT_EQ(touched.latency(t, pl), whole.latency(t, pl));
      EXPECT_EQ(touched.energy(t, pl), whole.energy(t, pl));
    }
  }
  const assign::Assignment a = assign::LpHta().assign(touched);
  const assign::Assignment b = assign::LpHta().assign(whole);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_GT(a.count(assign::Decision::kLocal), 0u);
  EXPECT_EQ(assign::Hgos().assign(touched).decisions,
            assign::Hgos().assign(whole).decisions);
}

TEST(SharderTest, DeadlineOverrideReplacesTheIssuedDeadline) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {2});
  const Population pop(universe);
  const PendingTask p = pending(0, 0, 0, 0.0);  // issued deadline 10s
  const std::vector<PendingTask> batch{p};
  const auto problems =
      sharder.build(pop, full_residual(universe), batch, {3.25});
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_DOUBLE_EQ(problems[0].tasks[0].deadline_s, 3.25);
}

}  // namespace
}  // namespace mecsched::serve
