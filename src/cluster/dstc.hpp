/// \file dstc.hpp
/// \brief DSTC — Dynamic, Statistical and Tunable Clustering.
///
/// Re-implementation of the clustering technique of Bullat & Schneider,
/// "Dynamic Clustering in Object Database Exploiting Effective Use of
/// Relationships Between Objects" (ECOOP '96), the algorithm the VOODB
/// paper uses for its clustering experiments (§4.4, Tables 6-8).
///
/// DSTC works in phases:
///
/// 1. **Observation** — during an observation period of `observation_period`
///    transactions, the policy counts per-object access frequencies and
///    *inter-object transition statistics*: an ordered pair (a, b) is
///    strengthened every time b is accessed right after a inside one
///    transaction (that order is exactly how a traversal would like the
///    two objects laid out on disk).
/// 2. **Selection** — statistics are filtered: objects accessed fewer than
///    `min_object_frequency` times and links weaker than
///    `min_link_weight` are discarded (the Tfa / Tfc thresholds of the
///    original publication).
/// 3. **Cluster construction** — cluster fragments are grown greedily:
///    starting from the hottest unclustered object, the strongest
///    surviving link (with weight >= `extension_threshold`) is followed
///    repeatedly, producing an *ordered* fragment of at most
///    `max_cluster_size` objects.  Fragments of size 1 are dropped.
/// 4. **Reorganization** — fragments are written contiguously; the host
///    system charges the corresponding I/O (and, with physical OIDs, the
///    full reference-patching scan).
///
/// Statistics are consumed by Recluster(); a fresh observation phase then
/// begins, as in the original design where flushing the statistics frees
/// the collection structures.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/dense_stats.hpp"
#include "cluster/policy.hpp"

namespace voodb::cluster {

/// DSTC tunables (the paper's future work asks for "the right value for
/// DSTC's parameters in various conditions" — the ablation bench sweeps
/// these).
struct DstcParameters {
  /// Observation period Tobs: transactions between trigger evaluations.
  uint32_t observation_period = 100;
  /// Tfa: minimum access count for an object to join a cluster.
  uint32_t min_object_frequency = 2;
  /// Tfc: minimum transition count for a link to survive selection.
  uint32_t min_link_weight = 2;
  /// Tfe: minimum link weight to *extend* a fragment (>= Tfc).
  uint32_t extension_threshold = 2;
  /// Maximum objects per cluster fragment.
  uint32_t max_cluster_size = 16;
  /// Minimum number of surviving links for automatic triggering.
  uint32_t trigger_min_links = 1;

  void Validate() const;
};

/// The DSTC policy.
class DstcPolicy final : public ClusteringPolicy {
 public:
  explicit DstcPolicy(DstcParameters params = {});

  const char* name() const override { return "DSTC"; }

  void OnTransactionStart() override;
  void OnObjectAccess(ocb::Oid oid, bool is_write) override;
  void OnTransactionEnd() override;

  bool ShouldTrigger() const override;

  ClusteringOutcome Recluster(const ocb::ObjectBase& base,
                              const storage::Placement& current) override;

  void Reset() override;

  // --- Introspection (tests / ablation benches) ---------------------------
  uint64_t ObservedTransactions() const { return observed_transactions_; }
  uint64_t ObservedAccesses() const { return observed_accesses_; }
  uint64_t TrackedObjects() const { return stats_.TrackedObjects(); }
  uint64_t TrackedLinks() const { return stats_.TrackedLinks(); }
  const DstcParameters& params() const { return params_; }

 private:
  /// A link surviving the Tfc filter.
  struct Candidate {
    ocb::Oid target;
    uint32_t weight;
  };
  /// A frontier link of the fragment being grown; max-heap order by
  /// weight, earlier-pushed first among equals.
  struct Frontier {
    uint32_t weight;
    uint64_t seq;
    ocb::Oid target;
    bool operator<(const Frontier& o) const {
      if (weight != o.weight) return weight < o.weight;
      return seq > o.seq;
    }
  };
  static constexpr uint32_t kNoRow = static_cast<uint32_t>(-1);

  /// Fills the candidate CSR (`row_begin_`, `candidates_`, `row_of_`):
  /// each source's surviving links, strongest first.
  void SelectLinks(uint64_t num_objects);

  DstcParameters params_;
  /// Dense access-frequency and directed-transition statistics.
  DenseStats stats_;
  // Recluster scratch, kept between reorganizations so a trigger
  // allocates only the clusters it returns.
  std::vector<uint32_t> row_begin_;    ///< CSR row starts, one past the end
  std::vector<Candidate> candidates_;  ///< all rows, back to back
  std::vector<uint32_t> row_of_;       ///< dense Oid -> row (or kNoRow)
  std::vector<std::pair<ocb::Oid, uint32_t>> seeds_;  ///< (oid, frequency)
  std::vector<char> clustered_;        ///< dense Oid -> in a fragment
  std::vector<ocb::Oid> fragments_;    ///< fragments, back to back
  std::vector<size_t> fragment_ends_;  ///< one past each fragment's end
  std::vector<Frontier> frontier_;     ///< growing fragment's links (heap)
  ocb::Oid previous_in_txn_ = ocb::kNullOid;
  bool in_transaction_ = false;
  uint64_t observed_transactions_ = 0;
  uint64_t observed_accesses_ = 0;
  uint64_t transactions_since_eval_ = 0;
};

}  // namespace voodb::cluster
