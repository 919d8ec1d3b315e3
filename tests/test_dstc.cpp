/// \file test_dstc.cpp
/// \brief Tests for the DSTC clustering policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/dstc.hpp"
#include "ocb/workload.hpp"
#include "util/check.hpp"

namespace voodb::cluster {
namespace {

ocb::ObjectBase SmallBase() {
  ocb::OcbParameters p;
  p.num_classes = 6;
  p.num_objects = 200;
  p.max_refs_per_class = 3;
  p.seed = 21;
  return ocb::ObjectBase::Generate(p);
}

storage::Placement DefaultPlacement(const ocb::ObjectBase& base) {
  return storage::Placement::Build(
      base, 1024, storage::PlacementPolicy::kOptimizedSequential);
}

/// Feeds a transaction (sequence of oids) to the policy.
void Feed(DstcPolicy& dstc, const std::vector<ocb::Oid>& sequence) {
  dstc.OnTransactionStart();
  for (ocb::Oid oid : sequence) dstc.OnObjectAccess(oid, false);
  dstc.OnTransactionEnd();
}

TEST(DstcParameters, Validation) {
  DstcParameters p;
  p.Validate();
  DstcParameters bad = p;
  bad.max_cluster_size = 1;
  EXPECT_THROW(bad.Validate(), util::Error);
  bad = p;
  bad.extension_threshold = 0;
  EXPECT_THROW(bad.Validate(), util::Error);
  bad = p;
  bad.min_link_weight = 5;
  bad.extension_threshold = 4;  // Tfe < Tfc
  EXPECT_THROW(bad.Validate(), util::Error);
}

TEST(Dstc, RecordsFrequenciesAndLinks) {
  DstcPolicy dstc;
  Feed(dstc, {1, 2, 3});
  Feed(dstc, {1, 2});
  EXPECT_EQ(dstc.ObservedTransactions(), 2u);
  EXPECT_EQ(dstc.ObservedAccesses(), 5u);
  EXPECT_EQ(dstc.TrackedObjects(), 3u);
  // Links: (1,2) twice, (2,3) once -> 2 distinct.
  EXPECT_EQ(dstc.TrackedLinks(), 2u);
}

TEST(Dstc, NoLinksAcrossTransactionBoundaries) {
  DstcPolicy dstc;
  Feed(dstc, {1});
  Feed(dstc, {2});
  EXPECT_EQ(dstc.TrackedLinks(), 0u);
}

TEST(Dstc, SelfTransitionsIgnored) {
  DstcPolicy dstc;
  Feed(dstc, {4, 4, 4});
  EXPECT_EQ(dstc.TrackedLinks(), 0u);
}

TEST(Dstc, TriggerRequiresPeriodAndStrongLinks) {
  DstcParameters params;
  params.observation_period = 3;
  params.min_link_weight = 2;
  DstcPolicy dstc(params);
  Feed(dstc, {1, 2});
  EXPECT_FALSE(dstc.ShouldTrigger());  // period not reached
  Feed(dstc, {1, 2});
  Feed(dstc, {1, 2});
  EXPECT_TRUE(dstc.ShouldTrigger());  // 3 txns, link (1,2) weight 3
}

TEST(Dstc, WeakLinksDoNotTrigger) {
  DstcParameters params;
  params.observation_period = 2;
  params.min_link_weight = 5;
  params.extension_threshold = 5;
  DstcPolicy dstc(params);
  Feed(dstc, {1, 2});
  Feed(dstc, {3, 4});
  EXPECT_FALSE(dstc.ShouldTrigger());
}

TEST(Dstc, RepeatedSequenceBecomesOneFragment) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  DstcParameters params;
  params.max_cluster_size = 16;
  DstcPolicy dstc(params);
  const std::vector<ocb::Oid> seq = {10, 20, 30, 40, 50};
  for (int i = 0; i < 5; ++i) Feed(dstc, seq);
  const ClusteringOutcome outcome = dstc.Recluster(base, pl);
  ASSERT_TRUE(outcome.reorganized);
  ASSERT_EQ(outcome.NumClusters(), 1u);
  // The fragment contains exactly the sequence (order may start from the
  // hottest object but must cover the set).
  std::set<ocb::Oid> members(outcome.clusters[0].begin(),
                             outcome.clusters[0].end());
  EXPECT_EQ(members, std::set<ocb::Oid>(seq.begin(), seq.end()));
}

TEST(Dstc, FragmentOrderFollowsStrongestLinks) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  DstcPolicy dstc;
  for (int i = 0; i < 4; ++i) Feed(dstc, {1, 2, 3});
  const ClusteringOutcome outcome = dstc.Recluster(base, pl);
  ASSERT_EQ(outcome.NumClusters(), 1u);
  EXPECT_EQ(outcome.clusters[0], (std::vector<ocb::Oid>{1, 2, 3}));
}

TEST(Dstc, MaxClusterSizeCapsFragments) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  DstcParameters params;
  params.max_cluster_size = 4;
  DstcPolicy dstc(params);
  std::vector<ocb::Oid> long_seq;
  for (ocb::Oid i = 0; i < 20; ++i) long_seq.push_back(i);
  for (int r = 0; r < 3; ++r) Feed(dstc, long_seq);
  const ClusteringOutcome outcome = dstc.Recluster(base, pl);
  ASSERT_TRUE(outcome.reorganized);
  for (const auto& cluster : outcome.clusters) {
    EXPECT_LE(cluster.size(), 4u);
    EXPECT_GE(cluster.size(), 2u);
  }
}

TEST(Dstc, ThresholdsFilterOneShotTraffic) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  DstcParameters params;
  params.min_link_weight = 2;
  params.extension_threshold = 2;
  DstcPolicy dstc(params);
  // A single pass over a sequence: all links have weight 1 -> filtered.
  Feed(dstc, {5, 6, 7, 8});
  const ClusteringOutcome outcome = dstc.Recluster(base, pl);
  EXPECT_FALSE(outcome.reorganized);
}

TEST(Dstc, ClustersAreDisjoint) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  DstcPolicy dstc;
  for (int i = 0; i < 3; ++i) {
    Feed(dstc, {1, 2, 3, 4});
    Feed(dstc, {10, 11, 12});
    Feed(dstc, {3, 4, 5});  // overlaps the first neighbourhood
  }
  const ClusteringOutcome outcome = dstc.Recluster(base, pl);
  std::set<ocb::Oid> seen;
  for (const auto& cluster : outcome.clusters) {
    for (ocb::Oid oid : cluster) {
      EXPECT_TRUE(seen.insert(oid).second) << "object in two clusters";
    }
  }
}

TEST(Dstc, ReclusterConsumesStatistics) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  DstcPolicy dstc;
  for (int i = 0; i < 3; ++i) Feed(dstc, {1, 2, 3});
  EXPECT_GT(dstc.TrackedObjects(), 0u);
  dstc.Recluster(base, pl);
  EXPECT_EQ(dstc.TrackedObjects(), 0u);
  EXPECT_EQ(dstc.TrackedLinks(), 0u);
  // Second recluster without new observations finds nothing.
  EXPECT_FALSE(dstc.Recluster(base, pl).reorganized);
}

TEST(Dstc, ResetDropsEverything) {
  DstcPolicy dstc;
  Feed(dstc, {1, 2});
  dstc.Reset();
  EXPECT_EQ(dstc.TrackedObjects(), 0u);
  EXPECT_EQ(dstc.TrackedLinks(), 0u);
}

TEST(Dstc, DeterministicClustering) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  auto run = [&] {
    DstcPolicy dstc;
    for (int i = 0; i < 4; ++i) {
      Feed(dstc, {1, 2, 3});
      Feed(dstc, {7, 8, 9, 10});
    }
    return dstc.Recluster(base, pl).clusters;
  };
  EXPECT_EQ(run(), run());
}

/// FNV-1a over a sequence of integers.
template <typename Seq>
uint64_t Fnv1a(const Seq& seq) {
  uint64_t h = 1469598103934665603ull;
  for (const auto v : seq) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Dstc, SeededTriggersMatchRecordedOutcomes) {
  // Three observation phases of a seeded OCB workload, each consumed by
  // one trigger (the later triggers reuse the earlier ones' scratch).
  // The expected values were recorded from the implementation that
  // grouped candidates in one vector per source and grew each fragment
  // with a fresh std::priority_queue: the flat selection must pick the
  // same clusters in the same order.
  struct Recorded {
    size_t clusters;
    size_t moved;
    uint64_t sizes_digest;
    uint64_t moved_digest;
  };
  const Recorded recorded[] = {
      {399, 1933, 0x39a7a397b9e7fd1cull, 0xb4f8be203013d4afull},
      {373, 2016, 0xa1e7a623f0db0a23ull, 0x586ef8521c28f35cull},
      {402, 2014, 0x7e85ca6cfe3c86cfull, 0x3bc9033107687aa2ull},
  };
  ocb::OcbParameters p;
  p.num_classes = 20;
  p.num_objects = 3000;
  p.seed = 29;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(p);
  const storage::Placement pl = storage::Placement::Build(
      base, 4096, storage::PlacementPolicy::kOptimizedSequential);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(31));
  DstcPolicy dstc;
  for (const Recorded& want : recorded) {
    for (int t = 0; t < 200; ++t) {
      const ocb::Transaction txn = gen.Next();
      dstc.OnTransactionStart();
      for (const ocb::ObjectAccess& a : txn.accesses) {
        dstc.OnObjectAccess(a.oid, a.is_write);
      }
      dstc.OnTransactionEnd();
    }
    const ClusteringOutcome outcome = dstc.Recluster(base, pl);
    std::vector<size_t> sizes;
    for (const auto& cluster : outcome.clusters) {
      sizes.push_back(cluster.size());
    }
    EXPECT_EQ(outcome.NumClusters(), want.clusters);
    EXPECT_EQ(outcome.moved_objects.size(), want.moved);
    EXPECT_EQ(Fnv1a(sizes), want.sizes_digest);
    EXPECT_EQ(Fnv1a(outcome.moved_objects), want.moved_digest);
  }
}

/// Parameter sweep: thresholds monotonically shrink the clustered set.
class DstcThresholds : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DstcThresholds, HigherThresholdsClusterLess) {
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = DefaultPlacement(base);
  auto clustered_objects = [&](uint32_t threshold) {
    DstcParameters params;
    params.min_link_weight = threshold;
    params.extension_threshold = threshold;
    DstcPolicy dstc(params);
    // Sequences repeated with different multiplicities.
    for (int i = 0; i < 2; ++i) Feed(dstc, {1, 2, 3});
    for (int i = 0; i < 4; ++i) Feed(dstc, {10, 11, 12});
    for (int i = 0; i < 8; ++i) Feed(dstc, {20, 21, 22});
    uint64_t total = 0;
    for (const auto& c : dstc.Recluster(base, pl).clusters) {
      total += c.size();
    }
    return total;
  };
  const uint32_t t = GetParam();
  EXPECT_GE(clustered_objects(t), clustered_objects(t * 2 + 1));
}

INSTANTIATE_TEST_SUITE_P(ThresholdSweep, DstcThresholds,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace voodb::cluster
