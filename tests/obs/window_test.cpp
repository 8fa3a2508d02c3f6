// The rolling view of obs::Histogram: a ring of epochs attached through
// Registry::window. The suite names predate the merge of the windowed
// type into Histogram and are kept so test ids stay stable.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace mecsched::obs {
namespace {

// epoch_seconds == 0 puts a window in manual mode: epochs roll only on
// advance(), so every test below is wall-clock free and deterministic.
TEST(WindowedHistogramTest, EmptySnapshotIsAllNaN) {
  Registry reg;
  const auto s = reg.window("w", 0.0, 4).snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.p50));
  EXPECT_TRUE(std::isnan(s.p99));
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
}

TEST(WindowedHistogramTest, TracksCountSumMinMax) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 4);
  w.observe(1.0);
  w.observe(3.0);
  w.observe(2.0);
  const auto s = w.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(WindowedHistogramTest, PercentilesClampToObservedRange) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 4);
  for (int i = 0; i < 100; ++i) w.observe(5.0);
  const auto s = w.snapshot();
  // All samples share a bucket; interpolation must not escape [min, max].
  EXPECT_DOUBLE_EQ(s.p50, 5.0);
  EXPECT_DOUBLE_EQ(s.p99, 5.0);
}

TEST(WindowedHistogramTest, PercentilesAreOrderedAndBracketed) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 4);
  for (int i = 1; i <= 1000; ++i) w.observe(i * 1e-3);  // 1ms..1s
  const auto s = w.snapshot();
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
}

TEST(WindowedHistogramTest, OldEpochsFallOutOfTheWindow) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 3);
  w.observe(1.0);
  w.advance();
  w.observe(2.0);
  EXPECT_EQ(w.snapshot().count, 2u);
  // Two more advances push the epoch holding 1.0 out of the 3-epoch ring.
  w.advance(2);
  const auto s = w.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  // And one more expires everything from the rolling view; the lifetime
  // view keeps every sample.
  w.advance();
  EXPECT_EQ(w.snapshot().count, 0u);
  EXPECT_EQ(w.summary().count(), 2u);
}

TEST(WindowedHistogramTest, ManualModeHasNoRate) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 4);
  w.observe(1.0);
  EXPECT_TRUE(std::isnan(w.snapshot().rate_hz));
}

TEST(WindowedHistogramTest, TimedModeReportsARate) {
  Registry reg;
  // Huge epochs: nothing expires mid-test.
  Histogram& w = reg.window("w", 3600.0, 2);
  for (int i = 0; i < 720; ++i) w.observe(1.0);
  const auto s = w.snapshot();
  EXPECT_EQ(s.count, 720u);
  EXPECT_TRUE(std::isfinite(s.rate_hz));
  EXPECT_GT(s.rate_hz, 0.0);
}

TEST(WindowedHistogramTest, RejectsZeroEpochs) {
  Registry reg;
  EXPECT_THROW(reg.window("a", 1.0, 0), std::invalid_argument);
  EXPECT_THROW(reg.window("b", -1.0, 4), std::invalid_argument);
}

TEST(WindowedHistogramTest, MergeFoldsLiveSamples) {
  Registry reg;
  Histogram& a = reg.window("a", 0.0, 4);
  Histogram& b = reg.window("b", 0.0, 4);
  a.observe(1.0);
  b.observe(2.0);
  b.observe(4.0);
  a.merge_from(b);
  const auto s = a.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  // Only b's live samples travel: expired ones stay behind.
  b.advance(4);
  a.merge_from(b);
  EXPECT_EQ(a.snapshot().count, 3u);
  EXPECT_EQ(a.summary().count(), 5u);  // the lifetime view merges in full
}

TEST(WindowedHistogramTest, MergeOrderDoesNotChangeTheAggregate) {
  // The sweep runner merges shards in grid order; the collapsed-epoch
  // merge must make any order equivalent. Fold the same three shards in
  // two different orders and compare snapshots field by field.
  std::vector<std::vector<double>> shards = {
      {1e-3, 2e-3}, {5e-3, 7e-3, 9e-3}, {4e-3}};
  const auto fold = [&](std::vector<std::size_t> order) {
    Registry reg;
    Histogram& sink = reg.window("sink", 0.0, 4);
    for (const std::size_t i : order) {
      Registry shard_reg;
      Histogram& shard = shard_reg.window("shard", 0.0, 4);
      for (const double v : shards[i]) shard.observe(v);
      sink.merge_from(shard);
    }
    return sink.snapshot();
  };
  const auto forward = fold({0, 1, 2});
  const auto backward = fold({2, 1, 0});
  EXPECT_EQ(forward.count, backward.count);
  EXPECT_DOUBLE_EQ(forward.sum, backward.sum);
  EXPECT_DOUBLE_EQ(forward.min, backward.min);
  EXPECT_DOUBLE_EQ(forward.max, backward.max);
  EXPECT_DOUBLE_EQ(forward.p50, backward.p50);
  EXPECT_DOUBLE_EQ(forward.p99, backward.p99);
}

TEST(WindowedHistogramTest, ResetClears) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 4);
  w.observe(1.0);
  w.reset();
  EXPECT_EQ(w.snapshot().count, 0u);
  EXPECT_TRUE(w.has_window());  // the ring stays attached
}

TEST(WindowedHistogramTest, ConcurrentObserversAreCounted) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w] {
      for (int i = 0; i < kPerThread; ++i) w.observe(1e-3);
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(w.snapshot().count, total);
  EXPECT_EQ(w.summary().count(), total);
}

TEST(WindowedHistogramTest, ConcurrentMergesAndObserversLoseNothing) {
  // merge_from copies the source's ring under its lock while other
  // threads keep observing into both sides. Run under TSan in CI.
  Registry reg;
  Histogram& source = reg.window("source", 0.0, 4);
  Histogram& sink = reg.window("sink", 0.0, 4);
  constexpr int kObservers = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kObservers);
  for (int t = 0; t < kObservers; ++t) {
    threads.emplace_back([&source, &sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        (t % 2 == 0 ? source : sink).observe(1e-3);
      }
    });
  }
  for (int m = 0; m < 50; ++m) sink.merge_from(source);
  for (auto& t : threads) t.join();
  sink.merge_from(source);
  // Samples merged mid-run count again in later merges; what survives the
  // race is "nothing vanished", in both views.
  const std::uint64_t own = 2ull * kPerThread;
  EXPECT_EQ(source.snapshot().count, own);
  EXPECT_GE(sink.snapshot().count, 2 * own);
  EXPECT_GE(sink.summary().count(), 2 * own);
}

TEST(RegistryWindowTest, WindowMayShareANameWithAHistogram) {
  Registry reg;
  Histogram& h = reg.histogram("exec.sweep.cell_seconds");
  h.observe(1.0);
  EXPECT_FALSE(h.has_window());
  // window() hands back the same histogram and attaches its ring; one
  // observe then feeds both views.
  Histogram& w = reg.window("exec.sweep.cell_seconds", 0.0, 4);
  EXPECT_EQ(&w, &h);
  w.observe(2.0);
  EXPECT_EQ(h.summary().count(), 2u);
  EXPECT_EQ(w.snapshot().count, 1u);
  EXPECT_EQ(reg.windows().size(), 1u);
  EXPECT_EQ(reg.histograms().size(), 1u);
  // The first ring stays: a later window() call does not reshape it.
  EXPECT_EQ(&reg.window("exec.sweep.cell_seconds", 1.0, 2), &h);
  w.advance(3);
  EXPECT_EQ(w.snapshot().count, 1u);
}

TEST(RegistryWindowTest, MergeFromCarriesWindows) {
  Registry a;
  Registry b;
  b.window("w", 0.0, 4).observe(2.0);
  b.histogram("h").observe(3.0);
  a.merge_from(b);
  ASSERT_EQ(a.windows().size(), 1u);
  EXPECT_EQ(a.windows()[0].first, "w");
  EXPECT_EQ(a.windows()[0].second->snapshot().count, 1u);
  // The receiver's ring takes the sender's shape (manual, 4 epochs).
  EXPECT_TRUE(std::isnan(a.windows()[0].second->snapshot().rate_hz));
  EXPECT_EQ(a.histograms().size(), 2u);
}

TEST(RegistryWindowTest, ResetClearsWindows) {
  Registry reg;
  Histogram& w = reg.window("w", 0.0, 4);
  w.observe(1.0);
  reg.reset();
  EXPECT_EQ(w.snapshot().count, 0u);  // reference stays valid
}

TEST(HistogramTest, ApproxPercentileBracketsTheSamples) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-2);  // 0.01 .. 1.0
  EXPECT_GE(h.approx_percentile(0.5), 0.01);
  EXPECT_LE(h.approx_percentile(0.5), 1.0);
  EXPECT_LE(h.approx_percentile(0.5), h.approx_percentile(0.99));
  EXPECT_TRUE(std::isnan(Histogram().approx_percentile(0.5)));
}

TEST(HistogramTest, SnapshotWithoutARingIsTheLifetimeView) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.observe(i * 1.0);
  EXPECT_FALSE(h.has_window());
  h.advance(5);  // no ring: nothing to expire
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.sum, 55.0);
  EXPECT_DOUBLE_EQ(s.p50, h.approx_percentile(0.5));
  EXPECT_DOUBLE_EQ(s.p99, h.approx_percentile(0.99));
  EXPECT_TRUE(std::isnan(s.rate_hz));
}

}  // namespace
}  // namespace mecsched::obs
