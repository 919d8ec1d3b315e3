#include "cluster/dstc.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace voodb::cluster {

void DstcParameters::Validate() const {
  VOODB_CHECK_MSG(observation_period >= 1, "observation period must be >= 1");
  VOODB_CHECK_MSG(min_object_frequency >= 1, "Tfa must be >= 1");
  VOODB_CHECK_MSG(min_link_weight >= 1, "Tfc must be >= 1");
  VOODB_CHECK_MSG(extension_threshold >= min_link_weight,
                  "Tfe must be >= Tfc");
  VOODB_CHECK_MSG(max_cluster_size >= 2, "max cluster size must be >= 2");
}

DstcPolicy::DstcPolicy(DstcParameters params) : params_(params) {
  params_.Validate();
}

void DstcPolicy::OnTransactionStart() {
  in_transaction_ = true;
  previous_in_txn_ = ocb::kNullOid;
}

void DstcPolicy::OnObjectAccess(ocb::Oid oid, bool /*is_write*/) {
  ++observed_accesses_;
  stats_.AddAccess(oid);
  if (in_transaction_ && previous_in_txn_ != ocb::kNullOid &&
      previous_in_txn_ != oid) {
    stats_.AddLink(previous_in_txn_, oid);
  }
  previous_in_txn_ = oid;
}

void DstcPolicy::OnTransactionEnd() {
  in_transaction_ = false;
  previous_in_txn_ = ocb::kNullOid;
  ++observed_transactions_;
  ++transactions_since_eval_;
}

bool DstcPolicy::ShouldTrigger() const {
  if (transactions_since_eval_ < params_.observation_period) return false;
  // Cheap test: enough strong links collected to justify a reorganization.
  return stats_.CountLinksAtLeast(params_.min_link_weight) >=
         params_.trigger_min_links;
}

void DstcPolicy::SelectLinks(uint64_t num_objects) {
  row_of_.assign(num_objects, kNoRow);
  row_begin_.clear();
  candidates_.clear();
  // ForEachLink groups links by source, so each source's survivors form
  // one contiguous row.
  stats_.ForEachLink([&](ocb::Oid from, ocb::Oid to, uint32_t weight) {
    if (weight < params_.min_link_weight) return;
    if (stats_.Frequency(from) < params_.min_object_frequency ||
        stats_.Frequency(to) < params_.min_object_frequency) {
      return;
    }
    if (row_of_[from] == kNoRow) {
      row_of_[from] = static_cast<uint32_t>(row_begin_.size());
      row_begin_.push_back(static_cast<uint32_t>(candidates_.size()));
    }
    candidates_.push_back(Candidate{to, weight});
  });
  row_begin_.push_back(static_cast<uint32_t>(candidates_.size()));
  // Deterministic strongest-first order (ties by OID).
  for (size_t row = 0; row + 1 < row_begin_.size(); ++row) {
    std::sort(candidates_.begin() + row_begin_[row],
              candidates_.begin() + row_begin_[row + 1],
              [](const Candidate& a, const Candidate& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                return a.target < b.target;
              });
  }
}

ClusteringOutcome DstcPolicy::Recluster(
    const ocb::ObjectBase& base, const storage::Placement& /*current*/) {
  SelectLinks(base.NumObjects());

  // Seed order: hottest objects first (deterministic; ties by OID).
  seeds_.clear();
  for (ocb::Oid oid : stats_.TouchedObjects()) {
    const uint32_t freq = stats_.Frequency(oid);
    if (freq >= params_.min_object_frequency) seeds_.emplace_back(oid, freq);
  }
  std::sort(seeds_.begin(), seeds_.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  // Fragments are grown back to back in one flat array, then each is
  // copied out once, at its exact size.
  clustered_.assign(base.NumObjects(), 0);
  fragments_.clear();
  fragment_ends_.clear();
  for (const auto& [seed, freq] : seeds_) {
    if (clustered_[seed]) continue;
    // Grow a fragment by repeatedly absorbing the strongest surviving link
    // out of *any* fragment member (DSTC builds its clustering units from
    // the whole web of links around the seed, not a single chain).
    const size_t begin = fragments_.size();
    fragments_.push_back(seed);
    clustered_[seed] = 1;
    frontier_.clear();
    uint64_t seq = 0;
    auto push_links = [&](ocb::Oid from) {
      const uint32_t row = row_of_[from];
      if (row == kNoRow) return;
      for (uint32_t i = row_begin_[row]; i < row_begin_[row + 1]; ++i) {
        const Candidate& c = candidates_[i];
        if (c.weight < params_.extension_threshold) break;  // sorted desc
        if (!clustered_[c.target]) {
          frontier_.push_back(Frontier{c.weight, seq++, c.target});
          std::push_heap(frontier_.begin(), frontier_.end());
        }
      }
    };
    push_links(seed);
    while (fragments_.size() - begin < params_.max_cluster_size &&
           !frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end());
      const Frontier f = frontier_.back();
      frontier_.pop_back();
      if (clustered_[f.target]) continue;  // claimed since it was pushed
      fragments_.push_back(f.target);
      clustered_[f.target] = 1;
      push_links(f.target);
    }
    if (fragments_.size() - begin >= 2) {
      fragment_ends_.push_back(fragments_.size());
    } else {
      fragments_.pop_back();
      clustered_[seed] = 0;  // singleton: stays where it is
    }
  }

  std::vector<std::vector<ocb::Oid>> clusters;
  clusters.reserve(fragment_ends_.size());
  size_t begin = 0;
  for (const size_t end : fragment_ends_) {
    clusters.emplace_back(fragments_.begin() + begin,
                          fragments_.begin() + end);
    begin = end;
  }
  ClusteringOutcome outcome = FinalizeOutcome(std::move(clusters), base);
  // Statistics are consumed: a new observation phase starts.
  Reset();
  return outcome;
}

void DstcPolicy::Reset() {
  stats_.Clear();
  previous_in_txn_ = ocb::kNullOid;
  in_transaction_ = false;
  transactions_since_eval_ = 0;
}

}  // namespace voodb::cluster
