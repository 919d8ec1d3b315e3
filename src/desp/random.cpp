#include "desp/random.hpp"

#include <cmath>

#include "util/check.hpp"

namespace voodb::desp {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

RandomStream::RandomStream(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

RandomStream RandomStream::Derive(uint64_t purpose) const {
  uint64_t sm = seed_ ^ (0xA0761D6478BD642FULL * (purpose + 1));
  return RandomStream(SplitMix64(sm));
}

uint64_t RandomStream::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double RandomStream::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double RandomStream::Uniform(double lo, double hi) {
  VOODB_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t RandomStream::Below(const UniformBelow& bound) {
  uint64_t r;
  do {
    r = NextU64();
  } while (r < bound.threshold_);
  return bound.range_.Mod(r);
}

int64_t RandomStream::UniformInt(int64_t lo, int64_t hi) {
  VOODB_CHECK_MSG(lo <= hi, "UniformInt: empty range [" << lo << ", " << hi
                                                        << "]");
  // Unsigned arithmetic: the span of [INT64_MIN, INT64_MAX] wraps to 0
  // (2^64), and lo + r may pass INT64_MAX on the way into the range.
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextU64());  // full 64-bit range
  return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                              Below(UniformBelow(range)));
}

bool RandomStream::Bernoulli(double p) {
  VOODB_DCHECK(p >= 0.0 && p <= 1.0);
  return NextDouble() < p;
}

double RandomStream::Exponential(double mean) {
  VOODB_CHECK_MSG(mean > 0.0, "Exponential mean must be positive");
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double RandomStream::Normal(double mean, double stddev) {
  VOODB_CHECK_MSG(stddev >= 0.0, "Normal stddev must be non-negative");
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

int64_t RandomStream::Zipf(int64_t n, double s) {
  VOODB_CHECK_MSG(n > 0, "Zipf support must be non-empty");
  VOODB_CHECK_MSG(s >= 0.0, "Zipf skew must be non-negative");
  if (s == 0.0) return UniformInt(0, n - 1);
  // Rejection-inversion sampling (Hörmann & Derflinger 1996), as used by
  // Apache Commons RejectionInversionZipfSampler.  Ranks are 1-based
  // internally; we return 0-based ranks.
  const double nd = static_cast<double>(n);
  auto h_integral = [s](double x) {
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h = [s](double x) { return std::pow(x, -s); };
  auto h_integral_inverse = [s](double y) {
    if (s == 1.0) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double h_integral_x1 = h_integral(1.5) - 1.0;
  const double h_integral_n = h_integral(nd + 0.5);
  const double threshold =
      1.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
  while (true) {
    const double u =
        h_integral_n + NextDouble() * (h_integral_x1 - h_integral_n);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > nd) k = nd;
    if (k - x <= threshold || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<int64_t>(k) - 1;
    }
  }
}

size_t RandomStream::Discrete(const std::vector<double>& weights) {
  VOODB_CHECK_MSG(!weights.empty(), "Discrete needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    VOODB_CHECK_MSG(w >= 0.0, "Discrete weights must be non-negative");
    total += w;
  }
  VOODB_CHECK_MSG(total > 0.0, "Discrete weights must not all be zero");
  double u = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace voodb::desp
