// Reconciler edge cases: what churn does to in-flight work at shard
// boundaries — the scenarios docs/serve.md calls out.
#include "serve/reconciler.h"

#include <gtest/gtest.h>

#include "mec/parameters.h"
#include "serve/population.h"

namespace mecsched::serve {
namespace {

RunningTask running(std::size_t id, assign::Decision where, double finish_s) {
  RunningTask t;
  t.id = id;
  t.finish_s = finish_s;
  t.where = where;
  t.issuer = 0;
  t.station = 0;
  t.resource = 2.0;
  return t;
}

TEST(ReconcilerTest, IssuerLeaveLosesTheTask) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kEdge, 5.0));
  const Interruptions i = rec.observe(Event::leave(1.0, 0));
  ASSERT_EQ(i.lost_issuer.size(), 1u);
  EXPECT_EQ(i.lost_issuer[0], 1u);
  EXPECT_TRUE(rec.running().empty());
}

TEST(ReconcilerTest, OwnerLeaveOrphansOnlyExternalTasks) {
  Reconciler rec;
  RunningTask with_ext = running(1, assign::Decision::kEdge, 5.0);
  with_ext.has_external = true;
  with_ext.owner = 3;
  rec.start(with_ext);
  rec.start(running(2, assign::Decision::kEdge, 5.0));  // no external data
  const Interruptions i = rec.observe(Event::leave(1.0, 3));
  ASSERT_EQ(i.orphaned.size(), 1u);
  EXPECT_EQ(i.orphaned[0], 1u);
  EXPECT_TRUE(i.lost_issuer.empty());
  ASSERT_EQ(rec.running().size(), 1u);
  EXPECT_EQ(rec.running()[0].id, 2u);
}

TEST(ReconcilerTest, IssuerMigrationOrphansOffloadedWorkOnly) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kLocal, 5.0));
  rec.start(running(2, assign::Decision::kEdge, 5.0));
  rec.start(running(3, assign::Decision::kCloud, 5.0));
  const Interruptions i = rec.observe(Event::migrate(1.0, 0, 1));
  // Local work travels with the device; edge/cloud lose their delivery
  // path through the old cell.
  ASSERT_EQ(i.orphaned.size(), 2u);
  EXPECT_EQ(i.orphaned[0], 2u);
  EXPECT_EQ(i.orphaned[1], 3u);
  ASSERT_EQ(rec.running().size(), 1u);
  EXPECT_EQ(rec.running()[0].where, assign::Decision::kLocal);
}

TEST(ReconcilerTest, StationFailOrphansOffloadedWorkThroughThatCell) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kLocal, 5.0));
  rec.start(running(2, assign::Decision::kEdge, 5.0));
  rec.start(running(3, assign::Decision::kCloud, 5.0));
  RunningTask elsewhere = running(4, assign::Decision::kEdge, 5.0);
  elsewhere.station = 1;
  rec.start(elsewhere);
  const Interruptions i = rec.observe(Event::station_fail(1.0, 0));
  // The cell's CPU and its backhaul to the cloud are gone; local runs and
  // work served by other cells survive.
  ASSERT_EQ(i.orphaned.size(), 2u);
  EXPECT_EQ(i.orphaned[0], 2u);
  EXPECT_EQ(i.orphaned[1], 3u);
  EXPECT_TRUE(i.lost_issuer.empty());
  ASSERT_EQ(rec.running().size(), 2u);
  EXPECT_TRUE(rec.observe(Event::station_recover(2.0, 0)).orphaned.empty());
  EXPECT_TRUE(rec.observe(Event::link_degrade(2.0, 0, 0.5)).orphaned.empty());
}

TEST(ReconcilerTest, JoinWhileUpReHomesWithoutOrphaning) {
  // Pins today's behaviour: a join for a device that is already up moves
  // it to the join's station, like a migrate, but unlike a migrate it
  // leaves the device's in-flight edge/cloud work running through the old
  // cell.
  std::vector<mec::Device> devices(2);
  std::vector<mec::BaseStation> stations(2);
  for (std::size_t i = 0; i < 2; ++i) {
    devices[i].id = i;
    devices[i].base_station = i;
    devices[i].cpu_hz = 1.5e9;
    devices[i].radio = mec::kWiFi;
    devices[i].max_resource = 8.0;
    stations[i].id = i;
    stations[i].cpu_hz = mec::SystemParameters{}.base_station_hz;
    stations[i].max_resource = 40.0;
  }
  const mec::Topology universe(std::move(devices), std::move(stations),
                               mec::SystemParameters{});
  Population pop(universe);
  Reconciler rec;
  rec.start(running(1, assign::Decision::kEdge, 5.0));  // issuer 0, cell 0

  const Event join = Event::join(1.0, 0, 1);
  EXPECT_TRUE(rec.observe(join).orphaned.empty());
  pop.apply(join);
  EXPECT_TRUE(pop.up(0));
  EXPECT_EQ(pop.station(0), 1u);
  EXPECT_EQ(pop.num_up(), 2u);
  ASSERT_EQ(rec.running().size(), 1u);
  EXPECT_EQ(rec.running()[0].station, 0u);

  // The same move as a migrate orphans the edge run.
  EXPECT_EQ(rec.observe(Event::migrate(1.5, 0, 0)).orphaned.size(), 1u);
}

TEST(ReconcilerTest, OwnerMigrationNeverInterrupts) {
  Reconciler rec;
  RunningTask t = running(1, assign::Decision::kEdge, 5.0);
  t.has_external = true;
  t.owner = 3;
  rec.start(t);
  const Interruptions i = rec.observe(Event::migrate(1.0, 3, 1));
  EXPECT_TRUE(i.orphaned.empty());
  EXPECT_TRUE(i.lost_issuer.empty());
}

TEST(ReconcilerTest, FinishedWorkSurvivesLaterChurn) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kEdge, 0.5));
  const Interruptions i = rec.observe(Event::leave(1.0, 0));
  EXPECT_TRUE(i.lost_issuer.empty());
  const std::vector<std::size_t> done = rec.collect_completions(1.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
}

TEST(ReconcilerTest, OccupancyChargesDevicesForLocalAndStationsForEdge) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kLocal, 5.0));
  rec.start(running(2, assign::Decision::kEdge, 5.0));
  rec.start(running(3, assign::Decision::kCloud, 5.0));
  rec.start(running(4, assign::Decision::kEdge, 0.5));  // already finished
  EXPECT_DOUBLE_EQ(rec.device_used(0, 1.0), 2.0);   // the local run
  EXPECT_DOUBLE_EQ(rec.station_used(0, 1.0), 2.0);  // the live edge run only
  EXPECT_DOUBLE_EQ(rec.device_used(1, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rec.station_used(1, 1.0), 0.0);
}

TEST(ReconcilerTest, CollectCompletionsReturnsStartOrder) {
  Reconciler rec;
  rec.start(running(5, assign::Decision::kEdge, 0.2));
  rec.start(running(6, assign::Decision::kEdge, 0.1));
  const std::vector<std::size_t> done = rec.collect_completions(0.3);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 5u);
  EXPECT_EQ(done[1], 6u);
}

}  // namespace
}  // namespace mecsched::serve
