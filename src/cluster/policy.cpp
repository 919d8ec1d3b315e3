#include "cluster/policy.hpp"

#include "util/check.hpp"

namespace voodb::cluster {

double ClusteringOutcome::MeanClusterSize() const {
  if (clusters.empty()) return 0.0;
  uint64_t total = 0;
  for (const auto& c : clusters) total += c.size();
  return static_cast<double>(total) / static_cast<double>(clusters.size());
}

ClusteringOutcome FinalizeOutcome(
    std::vector<std::vector<ocb::Oid>> clusters, const ocb::ObjectBase& base) {
  ClusteringOutcome outcome;
  outcome.clusters = std::move(clusters);
  if (outcome.clusters.empty()) return outcome;
  outcome.reorganized = true;

  // Moved set: exactly the clustered objects.  A logical-OID system
  // relocates cluster fragments into fresh pages and leaves unclustered
  // objects where they are; a physical-OID system additionally rewrites
  // every page to patch references (charged by the host, not here).
  const uint64_t no = base.NumObjects();
  size_t total = 0;
  for (const auto& cluster : outcome.clusters) total += cluster.size();
  outcome.moved_objects.reserve(total);
  std::vector<char> in_cluster(no, 0);
  for (const auto& cluster : outcome.clusters) {
    VOODB_CHECK_MSG(cluster.size() >= 2, "clusters must have >= 2 objects");
    for (ocb::Oid oid : cluster) {
      VOODB_CHECK_MSG(oid < no, "cluster oid out of range");
      VOODB_CHECK_MSG(!in_cluster[oid], "object in two clusters");
      in_cluster[oid] = 1;
      outcome.moved_objects.push_back(oid);
    }
  }
  return outcome;
}

}  // namespace voodb::cluster
