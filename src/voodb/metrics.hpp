/// \file metrics.hpp
/// \brief Metrics reported by one workload phase of a VOODB run.
#pragma once

#include <algorithm>
#include <cstdint>

#include "desp/histogram.hpp"
#include "obs/spans.hpp"

namespace voodb::core {

/// Counters accumulated during one phase (a cold run, a hot run, or a
/// clustering reorganization).  The paper's headline metric is
/// `total_ios` — "mean number of I/Os necessary to perform the
/// transactions".
struct PhaseMetrics {
  uint64_t transactions = 0;
  uint64_t object_accesses = 0;
  /// Wait-die restarts (0 unless the lock-manager extension is enabled).
  uint64_t transaction_restarts = 0;
  uint64_t total_ios = 0;   ///< reads + writes at the disk
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_requests = 0;
  uint64_t network_bytes = 0;
  double sim_time_ms = 0.0;        ///< simulated wall-clock of the phase
  double mean_response_ms = 0.0;   ///< mean transaction response time
  /// Largest response observed in this phase (the Transaction Manager's
  /// phase maximum; `response_histogram.max()` is run-cumulative).
  double max_response_ms = 0.0;

  /// Full distributions for this phase (bucket-exact deltas between the
  /// phase-end and phase-start snapshots); mergeable across replications.
  desp::LogHistogram response_histogram;      ///< per-transaction (ms)
  desp::LogHistogram lock_wait_histogram;     ///< per lock grant (ms)
  desp::LogHistogram disk_service_histogram;  ///< per physical I/O (ms)
  /// Critical-path decomposition of the phase's committed (sampled)
  /// transactions: per-component response-time histograms whose per-txn
  /// values sum exactly to the response time (obs::CriticalPath).  Empty
  /// unless trace_spans is on.
  obs::ComponentHistograms component_histograms;

  /// Response-time percentile (ms); 0 when no transaction committed.  At
  /// most `max_response_ms`: a later phase's histogram clamps its
  /// in-bucket interpolation to the run's maximum, not the phase's.
  double ResponseQuantileMs(double q) const {
    return std::min(response_histogram.Quantile(q), max_response_ms);
  }

  double HitRate() const {
    return buffer_requests == 0 ? 0.0
                                : static_cast<double>(buffer_hits) /
                                      static_cast<double>(buffer_requests);
  }
  double IosPerTransaction() const {
    return transactions == 0 ? 0.0
                             : static_cast<double>(total_ios) /
                                   static_cast<double>(transactions);
  }
  double ThroughputTps() const {
    return sim_time_ms <= 0.0 ? 0.0
                              : static_cast<double>(transactions) * 1000.0 /
                                    sim_time_ms;
  }
};

/// Result of one clustering reorganization.
struct ClusteringMetrics {
  bool reorganized = false;
  uint64_t num_clusters = 0;
  double mean_cluster_size = 0.0;
  uint64_t overhead_ios = 0;  ///< I/Os charged by the reorganization
  double duration_ms = 0.0;   ///< simulated time spent reorganizing
};

}  // namespace voodb::core
