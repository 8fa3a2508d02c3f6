#include "common/rng.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/hash.h"

namespace mecsched {

double Rng::uniform(double lo, double hi) {
  MECSCHED_REQUIRE(lo <= hi, "uniform bounds out of order");
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MECSCHED_REQUIRE(lo <= hi, "uniform_int bounds out of order");
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  MECSCHED_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p outside [0,1]");
  std::bernoulli_distribution d(p);
  return d(engine_);
}

double Rng::exponential(double mean) {
  MECSCHED_REQUIRE(mean > 0.0, "exponential mean must be positive");
  std::exponential_distribution<double> d(1.0 / mean);
  return d(engine_);
}

double Rng::truncated_normal(double mean, double stddev, double lo) {
  std::normal_distribution<double> d(mean, stddev);
  // Resampling keeps the conditional distribution exact; the callers use
  // truncation points well inside the bulk so this terminates quickly.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const double x = d(engine_);
    if (x >= lo) return x;
  }
  return lo;  // pathological parameters: fall back to the bound
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  MECSCHED_REQUIRE(!weights.empty(), "weighted_index needs weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  MECSCHED_REQUIRE(total > 0.0, "weighted_index needs a positive total");
  double x = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  MECSCHED_REQUIRE(k <= n, "cannot sample more elements than exist");
  // Floyd's algorithm: O(k) expected insertions.
  std::vector<std::size_t> out;
  out.reserve(k);
  std::vector<bool> chosen(n, false);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t =
        static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(j)));
    if (chosen[t]) {
      chosen[j] = true;
      out.push_back(j);
    } else {
      chosen[t] = true;
      out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rng Rng::fork(std::uint64_t stream) const {
  return Rng(splitmix64(seed_ ^ splitmix64(stream + 1)));
}

std::uint64_t Rng::substream_seed(std::uint64_t key) const {
  // Salted differently from fork() so substream(k) and fork(k) are
  // themselves decorrelated; two splitmix rounds decorrelate adjacent keys.
  return splitmix64(splitmix64(seed_ + 0x6a09e667f3bcc909ULL) ^
                    splitmix64(key ^ 0xbb67ae8584caa73bULL));
}

Rng Rng::substream(std::uint64_t key) const {
  return Rng(substream_seed(key));
}

}  // namespace mecsched
