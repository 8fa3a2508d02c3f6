// Self-test of the traced pass arithmetic: self time on a hand-built span
// list with nested spans and parallel worker spans, and quantiles over raw
// samples where a bucketed estimate would be far off. Exits non-zero on
// any mismatch; run.py runs it after every build.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void expect_near(double got, double want, const std::string& what) {
  if (std::fabs(got - want) > 1e-9) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want
              << '\n';
    ++failures;
  }
}

void test_self_time() {
  using perfbench::Span;
  constexpr std::uint64_t kMain = 1;
  constexpr std::uint64_t kWorkerA = 7;
  constexpr std::uint64_t kWorkerB = 3;
  // Main thread: root [0,100) holds epoch [10,60), which holds back-to-back
  // waits [20,30) and [30,40) with a grandchild [22,24) inside the first;
  // then apply [60,70) and a span overhanging the root's end by
  // truncation [95,101).
  // Workers run shard spans during the epoch; they subtract nothing from
  // the main thread. Worker A nests cluster [12,20) in shard [10,30);
  // worker B has back-to-back shards [10,20) and [20,35).
  // Spans are listed out of order on purpose.
  const std::vector<Span> spans = {
      {"shard", kWorkerA, 10, 20},   // 0
      {"epoch", kMain, 10, 50},      // 1
      {"root", kMain, 0, 100},       // 2
      {"wait", kMain, 20, 10},       // 3
      {"inner", kMain, 22, 2},       // 4
      {"wait", kMain, 30, 10},       // 5
      {"apply", kMain, 60, 10},      // 6
      {"cluster", kWorkerA, 12, 8},  // 7
      {"shard", kWorkerB, 10, 10},   // 8
      {"shard", kWorkerB, 20, 15},   // 9
      {"tail", kMain, 95, 6},        // 10
  };
  const std::vector<double> self = perfbench::self_times_s(spans);
  const double us = 1e-6;
  expect_near(self[0], 12 * us, "worker A shard minus its cluster");
  expect_near(self[1], 30 * us, "epoch minus its waits");
  expect_near(self[2], 35 * us, "root minus epoch, apply and clipped tail");
  expect_near(self[3], 8 * us, "first wait minus its inner span");
  expect_near(self[4], 2 * us, "leaf span");
  expect_near(self[5], 10 * us, "second wait, a leaf");
  expect_near(self[6], 10 * us, "apply, a leaf");
  expect_near(self[7], 8 * us, "worker cluster, a leaf");
  expect_near(self[8], 10 * us, "worker B first shard is not B's parent");
  expect_near(self[9], 15 * us, "worker B second shard");
  expect_near(self[10], 6 * us, "overhanging tail keeps its whole duration");

  const auto totals = perfbench::totals_by_name(spans);
  expect_near(static_cast<double>(totals.at("shard").count), 3.0,
              "shard count across threads");
  expect_near(totals.at("shard").total_s, 45 * us, "shard total");
  expect_near(totals.at("shard").self_s, 37 * us, "shard self");
  expect_near(totals.at("wait").self_s, 18 * us, "wait self");
}

void test_quantiles() {
  // 90 fast samples at 1 ms and 10 slow ones at 50..59 ms: the exact p50 is
  // 1 ms and the exact p99 interpolates between the 99th and 100th ranks.
  std::vector<double> ms(90, 1.0);
  for (int i = 0; i < 10; ++i) ms.push_back(50.0 + i);
  expect_near(perfbench::quantile(ms, 0.5), 1.0, "p50 of a skewed sample");
  expect_near(perfbench::quantile(ms, 0.99), 58.01, "p99 interpolates ranks");
  expect_near(perfbench::quantile(ms, 1.0), 59.0, "p100 is the max");
  expect_near(perfbench::quantile({}, 0.5), 0.0, "empty sample reads 0");
  expect_near(perfbench::quantile({4.0}, 0.99), 4.0, "single sample");

  const std::vector<perfbench::Span> epochs = {
      {"serve.epoch", 1, 0, 20000},
      {"serve.epoch", 1, 20000, 22000},
      {"serve.epoch", 1, 42000, 54000},
      {"other", 1, 0, 1},
  };
  const std::vector<double> d = perfbench::durations_s(epochs, "serve.epoch");
  expect_near(static_cast<double>(d.size()), 3.0, "durations by name");
  expect_near(perfbench::quantile(d, 0.5), 0.022, "epoch p50 from spans");
  expect_near(perfbench::quantile(d, 0.9), 0.0476, "epoch p90 from spans");
}

}  // namespace

int main() {
  test_self_time();
  test_quantiles();
  if (failures == 0) std::cout << "perfbench self-test: ok\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
