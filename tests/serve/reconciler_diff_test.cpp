// Differential test: the indexed Reconciler against the sweep-based
// reference on seeded random streams of starts, churn, faults and
// completions. Times sit on a coarse grid, so finish times tie with each
// other and with event times (finish_s == time_s must leave a task
// untouched). Everything is compared exactly: interruption lists in
// order, the running set in start order, completions, and per-device and
// per-station occupancy to the bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "reference_reconciler.h"
#include "serve/reconciler.h"

namespace mecsched::serve {
namespace {

constexpr std::size_t kDevices = 12;
constexpr std::size_t kStations = 3;
constexpr double kTick = 0.25;  // the time grid

void expect_same_running(const std::vector<RunningTask>& got,
                         const std::vector<RunningTask>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
    EXPECT_EQ(got[i].finish_s, want[i].finish_s);
    EXPECT_EQ(got[i].where, want[i].where);
    EXPECT_EQ(got[i].issuer, want[i].issuer);
    EXPECT_EQ(got[i].station, want[i].station);
    EXPECT_EQ(got[i].resource, want[i].resource);
    EXPECT_EQ(got[i].has_external, want[i].has_external);
    EXPECT_EQ(got[i].owner, want[i].owner);
  }
}

// Occupancy at `now`, bit for bit, for every device and station.
void expect_same_occupancy(const Reconciler& got,
                           const ReferenceReconciler& want, double now) {
  std::vector<double> device(kDevices, 0.0);
  std::vector<double> station(kStations, 0.0);
  want.occupancy(now, device, station);
  for (std::size_t g = 0; g < kDevices; ++g) {
    EXPECT_EQ(got.device_used(g, now), device[g]) << "device " << g;
  }
  for (std::size_t b = 0; b < kStations; ++b) {
    EXPECT_EQ(got.station_used(b, now), station[b]) << "station " << b;
  }
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double on_grid(Rng& rng, double t, std::int64_t max_ticks) {
  return t + kTick * static_cast<double>(rng.uniform_int(0, max_ticks));
}

RunningTask random_task(Rng& rng, std::size_t id, double now) {
  constexpr assign::Decision kWhere[] = {assign::Decision::kLocal,
                                         assign::Decision::kEdge,
                                         assign::Decision::kCloud};
  RunningTask t;
  t.id = id;
  t.finish_s = on_grid(rng, now, 8);  // 0 ticks: finishes at its start
  t.where = kWhere[pick(rng, 3)];
  t.issuer = pick(rng, kDevices);
  t.station = pick(rng, kStations);
  t.resource = rng.uniform(0.1, 3.0);
  t.has_external = rng.bernoulli(0.5);
  // Sometimes the issuer owns its own external data.
  t.owner = rng.bernoulli(0.2) ? t.issuer : pick(rng, kDevices);
  return t;
}

Event random_event(Rng& rng, double time_s) {
  switch (pick(rng, 7)) {
    case 0:
      return Event::leave(time_s, pick(rng, kDevices));
    case 1:
      return Event::migrate(time_s, pick(rng, kDevices), pick(rng, kStations));
    case 2:
      return Event::station_fail(time_s, pick(rng, kStations));
    case 3:  // a join while up never interrupts
      return Event::join(time_s, pick(rng, kDevices), pick(rng, kStations));
    case 4:
      return Event::station_recover(time_s, pick(rng, kStations));
    case 5:
      return Event::link_degrade(time_s, pick(rng, kDevices), 0.5);
    default:
      return Event::link_restore(time_s, pick(rng, kDevices));
  }
}

class ReconcilerDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconcilerDiffTest, IndexedMatchesSweepOnRandomStreams) {
  Rng rng(GetParam());
  Reconciler got;
  ReferenceReconciler want;
  double now = 0.0;
  std::size_t next_id = 0;
  std::size_t interrupted = 0;
  for (std::size_t step = 0; step < 3000; ++step) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.45) {
      const RunningTask t = random_task(rng, next_id++, now);
      got.start(t);
      want.start(t);
    } else if (u < 0.85) {
      // Churn stamped on the grid at or after the clock: ties with
      // finish times are common.
      const Event e = random_event(rng, on_grid(rng, now, 2));
      const Interruptions a = got.observe(e);
      const Interruptions b = want.observe(e);
      ASSERT_EQ(a.lost_issuer, b.lost_issuer) << "step " << step;
      ASSERT_EQ(a.orphaned, b.orphaned) << "step " << step;
      interrupted += a.lost_issuer.size() + a.orphaned.size();
    } else if (u < 0.95) {
      now += kTick;
      ASSERT_EQ(got.collect_completions(now), want.collect_completions(now))
          << "step " << step;
    } else {
      now += kTick * static_cast<double>(rng.uniform_int(1, 4));
    }
    ASSERT_EQ(got.size(), want.running().size());
    ASSERT_EQ(got.empty(), want.running().empty());
    if (step % 7 == 0) {
      expect_same_running(got.running(), want.running());
      expect_same_occupancy(got, want, now);
      expect_same_occupancy(got, want, now + kTick);
    }
    if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
  }
  expect_same_running(got.running(), want.running());
  // The stream must actually exercise interruption.
  EXPECT_GT(interrupted, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconcilerDiffTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mecsched::serve
