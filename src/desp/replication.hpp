/// \file replication.hpp
/// \brief Observations and results of independent replications (paper
/// §4.2.2).
///
/// The VOODB paper runs every experiment as 100 independent replications
/// and reports the sample mean with a 95 % Student-t confidence interval,
/// after a pilot study of n = 10 sized via n* = n.(h/h*)^2.  A *model*
/// maps a replication seed to named observations recorded into a
/// `MetricSink`; `exp::RunGrid` runs the replications (serially with
/// `threads = 1`) and reduces them into a `ReplicationResult`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "desp/stats.hpp"

namespace voodb::desp {

/// Collects named scalar observations from one replication.  A
/// distribution enters as scalars estimated once per replication (a
/// percentile, a maximum), so it gets a CI across replications like any
/// other metric.
class MetricSink {
 public:
  /// Records one value for `name` (one call per replication per metric).
  void Observe(const std::string& name, double value);

  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
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

  uint64_t replications() const { return replications_; }

  /// Adds one replication's observations; the reduction calls it in
  /// replication order, so the result does not depend on which thread
  /// ran which replication.
  void AddReplication(const std::map<std::string, double>& observations);

 private:
  std::map<std::string, Tally> tallies_;
  uint64_t replications_ = 0;
};

}  // namespace voodb::desp
