// Property test for Histogram's quantile estimates against exact order
// statistics. With one bucket per decade the documented bound is the
// bucket: a p-quantile estimate lies in the grid bucket that holds the
// exact rank-ceil(q*n) sample, clamped to the observed [min, max]. The
// lifetime view (approx_percentile) and the rolling view (snapshot) share
// one quantile routine and must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/registry.h"

namespace mecsched::obs {
namespace {

struct Case {
  std::string name;
  std::vector<double> samples;
};

std::vector<Case> distributions() {
  constexpr int kN = 2000;
  Rng rng(20190707);
  std::vector<Case> cases;
  Case log_uniform{"log-uniform over 3 decades", {}};
  for (int i = 0; i < kN; ++i) {
    log_uniform.samples.push_back(std::pow(10.0, rng.uniform(-3.0, 0.0)));
  }
  cases.push_back(log_uniform);
  Case lognormal{"lognormal", {}};
  for (int i = 0; i < kN; ++i) {
    lognormal.samples.push_back(
        std::exp(rng.truncated_normal(-2.0, 1.5, -1e9)));
  }
  cases.push_back(lognormal);
  cases.push_back({"constant", std::vector<double>(kN, 5.0)});
  Case bimodal{"bimodal 1e-3/1e2", {}};
  for (int i = 0; i < kN; ++i) {
    bimodal.samples.push_back(rng.bernoulli(0.7) ? 1e-3 : 1e2);
  }
  cases.push_back(bimodal);
  Case with_nan{"uniform with a NaN", {}};
  for (int i = 0; i < kN; ++i) {
    with_nan.samples.push_back(rng.uniform(0.5, 50.0));
  }
  with_nan.samples.push_back(std::numeric_limits<double>::quiet_NaN());
  cases.push_back(with_nan);
  return cases;
}

// The rank-ceil(q*n) sample of a sorted copy; a NaN sorts last (it lands
// in the +Inf bucket, above every finite bound).
double exact_rank_sample(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end(), [](double a, double b) {
    if (std::isnan(a)) return false;
    if (std::isnan(b)) return true;
    return a < b;
  });
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

TEST(HistogramQuantileTest, EstimatesLieInTheExactSamplesBucket) {
  const std::vector<double>& bounds = Histogram::bucket_bounds();
  for (const Case& c : distributions()) {
    Registry reg;
    Histogram& h = reg.window("q", 0.0, 4);
    Summary observed;
    for (const double v : c.samples) {
      h.observe(v);
      observed.add(v);
    }
    const Histogram::Snapshot rolling = h.snapshot();
    for (const double q : {0.50, 0.90, 0.99}) {
      SCOPED_TRACE(c.name + ", q = " + std::to_string(q));
      const double exact = exact_rank_sample(c.samples, q);
      const double lifetime = h.approx_percentile(q);
      double lo;
      double hi;
      if (std::isnan(exact)) {
        // The +Inf bucket: the observed max is the only estimate.
        lo = hi = observed.max();
      } else {
        // Bucket i holds (bounds[i-1], bounds[i]] (Prometheus `le`).
        const auto it = std::lower_bound(bounds.begin(), bounds.end(), exact);
        ASSERT_NE(it, bounds.end());
        const std::size_t i = static_cast<std::size_t>(it - bounds.begin());
        lo = std::max(i == 0 ? 0.0 : bounds[i - 1], observed.min());
        hi = std::min(bounds[i], observed.max());
      }
      EXPECT_GE(lifetime, lo) << "exact " << exact;
      EXPECT_LE(lifetime, hi) << "exact " << exact;
      const double rolling_q =
          q == 0.50 ? rolling.p50 : (q == 0.90 ? rolling.p90 : rolling.p99);
      EXPECT_EQ(rolling_q, lifetime);
    }
    EXPECT_EQ(rolling.count, c.samples.size());
  }
}

TEST(HistogramQuantileTest, ConstantDataIsExact) {
  Registry reg;
  Histogram& h = reg.window("q", 0.0, 4);
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.approx_percentile(q), 5.0);
  }
  EXPECT_DOUBLE_EQ(h.snapshot().p99, 5.0);
}

}  // namespace
}  // namespace mecsched::obs
