#include "cluster/gay_gruenwald.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"

namespace voodb::cluster {

void GayGruenwaldParameters::Validate() const {
  VOODB_CHECK_MSG(observation_period >= 1, "observation period must be >= 1");
  VOODB_CHECK_MSG(min_heat >= 1, "min heat must be >= 1");
  VOODB_CHECK_MSG(max_cluster_size >= 2, "max cluster size must be >= 2");
}

GayGruenwaldPolicy::GayGruenwaldPolicy(GayGruenwaldParameters params)
    : params_(params) {
  params_.Validate();
}

void GayGruenwaldPolicy::OnObjectAccess(ocb::Oid oid, bool /*is_write*/) {
  heat_.AddAccess(oid);
}

void GayGruenwaldPolicy::OnTransactionEnd() { ++transactions_since_eval_; }

bool GayGruenwaldPolicy::ShouldTrigger() const {
  if (transactions_since_eval_ < params_.observation_period) return false;
  for (ocb::Oid oid : heat_.TouchedObjects()) {
    if (heat_.Frequency(oid) >= params_.min_heat) return true;
  }
  return false;
}

ClusteringOutcome GayGruenwaldPolicy::Recluster(
    const ocb::ObjectBase& base, const storage::Placement& /*current*/) {
  std::vector<std::pair<ocb::Oid, uint32_t>> seeds;
  seeds.reserve(heat_.TrackedObjects());
  for (ocb::Oid oid : heat_.TouchedObjects()) {
    const uint32_t h = heat_.Frequency(oid);
    if (h >= params_.min_heat) seeds.emplace_back(oid, h);
  }
  std::sort(seeds.begin(), seeds.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  std::vector<char> clustered(base.NumObjects(), 0);
  std::vector<std::vector<ocb::Oid>> clusters;
  for (const auto& [seed, h] : seeds) {
    if (clustered[seed]) continue;
    std::vector<ocb::Oid> fragment;
    std::deque<ocb::Oid> frontier;
    fragment.push_back(seed);
    clustered[seed] = 1;
    frontier.push_back(seed);
    while (!frontier.empty() &&
           fragment.size() < params_.max_cluster_size) {
      const ocb::Oid cursor = frontier.front();
      frontier.pop_front();
      // Dangling slots are skipped exactly like the workload traversals
      // skip them: a kNullOid slot simply does not exist.
      for (ocb::Oid ref : base.References(cursor)) {
        if (ref == ocb::kNullOid || clustered[ref]) continue;
        if (heat_.Frequency(ref) < params_.min_heat) continue;
        fragment.push_back(ref);
        clustered[ref] = 1;
        frontier.push_back(ref);
        if (fragment.size() >= params_.max_cluster_size) break;
      }
    }
    if (fragment.size() >= 2) {
      clusters.push_back(std::move(fragment));
    } else {
      clustered[seed] = 0;
    }
  }

  ClusteringOutcome outcome = FinalizeOutcome(std::move(clusters), base);
  Reset();
  return outcome;
}

void GayGruenwaldPolicy::Reset() {
  heat_.Clear();
  transactions_since_eval_ = 0;
}

}  // namespace voodb::cluster
