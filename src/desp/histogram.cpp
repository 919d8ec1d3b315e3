#include "desp/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace voodb::desp {

LogHistogram::LogHistogram(double min_value, double max_value,
                           uint32_t buckets_per_decade)
    : log_min_(std::log10(min_value)),
      log_max_(std::log10(max_value)),
      buckets_per_decade_(static_cast<double>(buckets_per_decade)) {
  VOODB_CHECK_MSG(min_value > 0.0, "min_value must be positive");
  VOODB_CHECK_MSG(max_value > min_value, "max_value must exceed min_value");
  VOODB_CHECK_MSG(buckets_per_decade >= 1, "need >= 1 bucket per decade");
  const double decades = log_max_ - log_min_;
  buckets_.assign(
      static_cast<size_t>(std::ceil(decades * buckets_per_decade_)) + 1, 0);
}

void LogHistogram::Add(double value) {
  tally_.Add(value);
  if (value <= 0.0) {
    ++underflow_;
    return;
  }
  const double log_value = std::log10(value);
  if (log_value < log_min_) {
    ++underflow_;
    return;
  }
  const double offset = (log_value - log_min_) * buckets_per_decade_;
  if (offset >= static_cast<double>(buckets_.size())) {
    ++overflow_;
    return;
  }
  ++buckets_[static_cast<size_t>(offset)];
}

double LogHistogram::BucketLower(size_t index) const {
  return std::pow(10.0, log_min_ + static_cast<double>(index) /
                                       buckets_per_decade_);
}

double LogHistogram::BucketUpper(size_t index) const {
  return BucketLower(index + 1);
}

double LogHistogram::Quantile(double q) const {
  VOODB_CHECK_MSG(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
  if (tally_.count() == 0) return 0.0;
  const double target = q * static_cast<double>(tally_.count());
  double cumulative = static_cast<double>(underflow_);
  if (cumulative >= target) return tally_.min();
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= target && buckets_[i] > 0) {
      // Linear interpolation inside the bucket, clamped to the exact
      // tracked extrema (interpolation alone can overshoot them inside
      // the first/last occupied bucket, reporting e.g. p999 > max).
      const double fraction =
          (target - cumulative) / static_cast<double>(buckets_[i]);
      const double lo = BucketLower(i);
      const double hi = BucketUpper(i);
      return std::min(std::max(lo + fraction * (hi - lo), tally_.min()),
                      tally_.max());
    }
    cumulative = next;
  }
  return tally_.max();  // overflow region
}

bool LogHistogram::SameBucketing(const LogHistogram& other) const {
  return buckets_.size() == other.buckets_.size() &&
         log_min_ == other.log_min_ && log_max_ == other.log_max_ &&
         buckets_per_decade_ == other.buckets_per_decade_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  VOODB_CHECK_MSG(
      SameBucketing(other),
      "cannot merge histograms with different bucketing: this has "
          << buckets_.size() << " buckets over [10^" << log_min_ << ", 10^"
          << log_max_ << "] at " << buckets_per_decade_
          << "/decade, other has " << other.buckets_.size()
          << " buckets over [10^" << other.log_min_ << ", 10^"
          << other.log_max_ << "] at " << other.buckets_per_decade_
          << "/decade");
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  tally_.Merge(other.tally_);
}

LogHistogram LogHistogram::DeltaSince(const LogHistogram& start) const {
  VOODB_CHECK_MSG(SameBucketing(start),
                  "DeltaSince needs a snapshot of this same histogram");
  LogHistogram delta = *this;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    VOODB_CHECK_MSG(buckets_[i] >= start.buckets_[i],
                    "DeltaSince start must be an earlier snapshot");
    delta.buckets_[i] = buckets_[i] - start.buckets_[i];
  }
  VOODB_CHECK_MSG(
      underflow_ >= start.underflow_ && overflow_ >= start.overflow_,
      "DeltaSince start must be an earlier snapshot");
  delta.underflow_ = underflow_ - start.underflow_;
  delta.overflow_ = overflow_ - start.overflow_;
  delta.tally_ = tally_.DeltaSince(start.tally_);
  return delta;
}

}  // namespace voodb::desp
