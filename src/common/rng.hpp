// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component of the simulator (traffic generators, VC
// selection, Valiant intermediate choice, arbiters where randomized) owns its
// own Rng instance derived from the experiment seed, so results are exactly
// reproducible regardless of component update order.
#pragma once

#include <cstdint>

namespace flexnet {

/// SplitMix64: used to expand one 64-bit seed into independent streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, re-derived here). Fast, high-quality, 2^256-1 period.
class Rng {
 public:
  /// Seeds the four state words from a SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  /// Creates an independent child stream. Deterministic in (parent seed,
  /// stream index): children of the same parent with different indices are
  /// decorrelated by SplitMix64 expansion.
  Rng split(std::uint64_t stream_index) const {
    SplitMix64 sm(s_[0] ^ (0x9e3779b97f4a7c15ULL * (stream_index + 1)));
    return Rng(sm.next() ^ s_[3]);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound <= 1) return 0;
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0ULL - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool next_bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace flexnet
