/// \file replication.hpp
/// \brief Observations and results of independent replications (paper
/// §4.2.2).
///
/// The VOODB paper runs every experiment as 100 independent replications
/// and reports the sample mean with a 95 % Student-t confidence interval,
/// after a pilot study of n = 10 sized via n* = n.(h/h*)^2.  A *model*
/// maps a replication seed to named observations recorded into a
/// `MetricSink`; `exp::ReplicationFarm` runs the replications (serially
/// with `threads = 1`) and reduces them into a `ReplicationResult`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "desp/histogram.hpp"
#include "desp/stats.hpp"

namespace voodb::exp {
class ReplicationFarm;
}  // namespace voodb::exp

namespace voodb::desp {

/// Collects named scalar and distribution observations from one replication.
class MetricSink {
 public:
  /// Records one value for `name` (one call per replication per metric).
  void Observe(const std::string& name, double value);

  /// Records one full distribution for `name` (one call per replication per
  /// name).  Histograms of the same name are merged bucket-by-bucket across
  /// replications, so their bucketing must match.
  void ObserveHistogram(const std::string& name, const LogHistogram& histogram);

  const std::map<std::string, double>& values() const { return values_; }
  const std::map<std::string, LogHistogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, LogHistogram> histograms_;
};

/// Aggregated results of a replicated experiment.
class ReplicationResult {
 public:
  /// Per-metric tallies across replications.
  const Tally& Metric(const std::string& name) const;
  bool HasMetric(const std::string& name) const;
  std::vector<std::string> MetricNames() const;

  /// Student-t CI for a metric at `level`.
  ConfidenceInterval Interval(const std::string& name,
                              double level = 0.95) const;

  /// Distribution metrics merged across replications (bucket counts and
  /// moments combine exactly, so the merged histogram is bit-identical at
  /// any thread count).
  const LogHistogram& Histogram(const std::string& name) const;
  bool HasHistogram(const std::string& name) const;
  std::vector<std::string> HistogramNames() const;

  uint64_t replications() const { return replications_; }

 private:
  friend class exp::ReplicationFarm;
  std::map<std::string, Tally> tallies_;
  std::map<std::string, LogHistogram> histograms_;
  uint64_t replications_ = 0;
};

}  // namespace voodb::desp
