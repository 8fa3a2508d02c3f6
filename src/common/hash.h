// Deterministic 64-bit hashing for seeds and digests.
//
// splitmix64 decorrelates Rng child seeds and chaos fault draws; the
// combiners below build order-dependent digests (serve's decision-log
// digest, the chaos drill's per-cell digest) that are equal across runs,
// platforms and job counts whenever their inputs are.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace mecsched {

// SplitMix64 finalizer.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-dependent combiner: hash_mix(hash_mix(h, a), b) != hash_mix(
// hash_mix(h, b), a) in general.
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ splitmix64(v));
}

// Mixes the bits of `v`, with -0.0 canonicalized so numerically equal
// values hash equal.
inline std::uint64_t hash_double(std::uint64_t h, double v) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
}

inline std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const char c : s) h = hash_mix(h, static_cast<std::uint64_t>(c));
  return hash_mix(h, s.size());
}

}  // namespace mecsched
