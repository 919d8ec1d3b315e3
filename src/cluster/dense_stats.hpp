/// \file dense_stats.hpp
/// \brief Dense per-Oid observation statistics shared by the clustering
/// policies.
///
/// Every clustering technique in this module observes the same two kinds
/// of statistics: per-object access frequencies (DSTC's Tfa filter,
/// Gay-Gruenwald's heat) and pairwise transition counts (DSTC's directed
/// links).  The collection hot path runs on *every object access* of the
/// simulation, so instead of an `unordered_map<Oid, ...>` per statistic
/// the state lives in dense Oid-indexed arrays:
///
/// * `freq_[oid]` — access count, grown on demand (OIDs are dense);
/// * a pooled adjacency list for links: `head_[oid]` chains into one
///   flat `links_` pool of {target, weight, next} records, so counting a
///   transition is one array walk over the source's (short) chain and at
///   most one pool append — no hashing, no per-node allocation.
///
/// Touched objects are tracked in first-touch order so iteration and
/// `Clear()` cost O(touched), not O(base).
#pragma once

#include <cstdint>
#include <vector>

#include "ocb/types.hpp"

namespace voodb::cluster {

/// Dense frequency + link statistics (see file comment).
class DenseStats {
 public:
  /// Counts one access of `oid`.
  void AddAccess(ocb::Oid oid) {
    Grow(oid);
    if (freq_[oid]++ == 0) touched_.push_back(oid);
  }

  /// Strengthens the directed link `from -> to` by one.
  void AddLink(ocb::Oid from, ocb::Oid to) {
    Grow(from);
    Grow(to);
    for (uint32_t i = head_[from]; i != kNoLink; i = links_[i].next) {
      if (links_[i].target == to) {
        ++links_[i].weight;
        return;
      }
    }
    if (head_[from] == kNoLink) source_of_.push_back(from);
    links_.push_back(Link{to, head_[from], 1});
    head_[from] = static_cast<uint32_t>(links_.size() - 1);
  }

  /// Access count of `oid` (0 when never seen).
  uint32_t Frequency(ocb::Oid oid) const {
    return oid < freq_.size() ? freq_[oid] : 0;
  }

  /// Objects accessed at least once, in first-touch order.
  const std::vector<ocb::Oid>& TouchedObjects() const { return touched_; }

  /// Number of distinct objects observed.
  uint64_t TrackedObjects() const { return touched_.size(); }
  /// Number of distinct links observed.
  uint64_t TrackedLinks() const { return links_.size(); }

  /// Calls `fn(from, to, weight)` for every link, grouped by source in
  /// first-link order (link order within a source is most-recent-first).
  template <typename Fn>
  void ForEachLink(Fn fn) const {
    for (ocb::Oid from : source_of_) {
      for (uint32_t i = head_[from]; i != kNoLink; i = links_[i].next) {
        fn(from, links_[i].target, links_[i].weight);
      }
    }
  }

  /// True when some link's weight reaches `threshold`.
  bool AnyLinkAtLeast(uint32_t threshold) const {
    for (const Link& link : links_) {
      if (link.weight >= threshold) return true;
    }
    return false;
  }

  /// Links whose weight reaches `threshold`.
  uint64_t CountLinksAtLeast(uint32_t threshold) const {
    uint64_t n = 0;
    for (const Link& link : links_) n += link.weight >= threshold ? 1 : 0;
    return n;
  }

  /// Drops all statistics; keeps the arrays' capacity (sparse clear:
  /// O(touched objects + links)).
  void Clear() {
    for (ocb::Oid oid : touched_) freq_[oid] = 0;
    for (ocb::Oid from : source_of_) head_[from] = kNoLink;
    touched_.clear();
    source_of_.clear();
    links_.clear();
  }

 private:
  static constexpr uint32_t kNoLink = static_cast<uint32_t>(-1);

  struct Link {
    ocb::Oid target;
    uint32_t next;    ///< next link of the same source, or kNoLink
    uint32_t weight;
  };

  void Grow(ocb::Oid oid) {
    if (oid >= freq_.size()) {
      freq_.resize(oid + 1, 0);
      head_.resize(oid + 1, kNoLink);
    }
  }

  std::vector<uint32_t> freq_;       ///< access count per Oid
  std::vector<uint32_t> head_;       ///< first link per source Oid
  std::vector<Link> links_;          ///< pooled adjacency records
  std::vector<ocb::Oid> touched_;    ///< first-touch order
  std::vector<ocb::Oid> source_of_;  ///< sources in first-link order
};

}  // namespace voodb::cluster
