/// \file random.hpp
/// \brief Random-number streams and distributions for DESP.
///
/// DESP-C++ (the simulation kernel the VOODB paper built after abandoning
/// QNAP2) bundles its own random-number machinery so that experiments are
/// reproducible across compilers and standard libraries.  We follow suit:
/// the generator is xoshiro256**, seeded through SplitMix64, and all
/// distribution sampling is implemented here rather than delegated to
/// <random> (whose distributions are not bit-stable across platforms).
///
/// Streams are cheap value types.  A simulation typically derives one
/// stream per stochastic purpose (workload choice, object selection, ...)
/// from a single replication seed via `RandomStream::Derive`, which keeps
/// the purposes statistically independent and individually reproducible.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/divisor.hpp"

namespace voodb::desp {

/// SplitMix64 step; used for seeding and stream derivation.
uint64_t SplitMix64(uint64_t& state);

/// Uniform integers in [0, n) for `RandomStream::Below`: the rejection
/// threshold and the divisor computed once, for loops that draw many
/// times from one range.
class UniformBelow {
 public:
  /// `n` must be >= 1.
  explicit UniformBelow(uint64_t n)
      : range_(n), threshold_(range_.Mod(0 - n)) {}

 private:
  friend class RandomStream;
  util::Divisor range_;
  /// 2^64 mod n: raw values below it would bias the remainder.
  uint64_t threshold_;
};

/// A deterministic pseudo-random stream (xoshiro256**).
class RandomStream {
 public:
  /// Seeds the stream; two streams with the same seed are identical.
  explicit RandomStream(uint64_t seed = 0xD1B54A32D192ED03ULL);

  /// Derives an independent child stream; `purpose` distinguishes children
  /// derived from the same parent seed.
  RandomStream Derive(uint64_t purpose) const;

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n) for the `n` that `bound` was built with
  /// (unbiased): rejection sampling with a Lemire-style threshold, then
  /// one remainder.
  uint64_t Below(const UniformBelow& bound);

  /// Uniform integer in the inclusive range [lo, hi] (unbiased); the same
  /// draws as `lo + Below(UniformBelow(hi - lo + 1))`.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p);

  /// Exponential variate with the given mean (mean = 1 / rate).
  double Exponential(double mean);

  /// Normal variate (Box–Muller with caching).
  double Normal(double mean, double stddev);

  /// Zipf variate on {0, ..., n-1} with skew `s` >= 0 (s == 0 => uniform).
  /// Rank 0 is the most probable element.  Rejection-inversion sampling.
  int64_t Zipf(int64_t n, double s);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  size_t Discrete(const std::vector<double>& weights);

  /// Fisher–Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  std::array<uint64_t, 4> state_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace voodb::desp
