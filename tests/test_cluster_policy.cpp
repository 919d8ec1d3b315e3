/// \file test_cluster_policy.cpp
/// \brief Tests for the clustering-policy interface helpers.
#include <gtest/gtest.h>

#include <set>

#include "cluster/policy.hpp"
#include "util/check.hpp"

namespace voodb::cluster {
namespace {

ocb::ObjectBase SmallBase() {
  ocb::OcbParameters p;
  p.num_classes = 6;
  p.num_objects = 120;
  p.max_refs_per_class = 3;
  p.seed = 9;
  return ocb::ObjectBase::Generate(p);
}

TEST(NoClustering, IsInert) {
  NoClustering none;
  EXPECT_STREQ(none.name(), "NONE");
  none.OnObjectAccess(3, false);
  EXPECT_FALSE(none.ShouldTrigger());
  const ocb::ObjectBase base = SmallBase();
  const storage::Placement pl = storage::Placement::Build(
      base, 1024, storage::PlacementPolicy::kSequential);
  const ClusteringOutcome outcome = none.Recluster(base, pl);
  EXPECT_FALSE(outcome.reorganized);
  EXPECT_EQ(outcome.NumClusters(), 0u);
  EXPECT_DOUBLE_EQ(outcome.MeanClusterSize(), 0.0);
}

TEST(FinalizeOutcome, EmptyClustersMeanNoReorganization) {
  const ocb::ObjectBase base = SmallBase();
  const ClusteringOutcome outcome = FinalizeOutcome({}, base);
  EXPECT_FALSE(outcome.reorganized);
  EXPECT_TRUE(outcome.moved_objects.empty());
}

TEST(FinalizeOutcome, MovedSetListsClusterObjectsInClusterOrder) {
  const ocb::ObjectBase base = SmallBase();
  std::vector<std::vector<ocb::Oid>> clusters = {{10, 11, 12}, {50, 40}};
  const ClusteringOutcome outcome = FinalizeOutcome(std::move(clusters), base);
  EXPECT_TRUE(outcome.reorganized);
  EXPECT_EQ(outcome.NumClusters(), 2u);
  EXPECT_DOUBLE_EQ(outcome.MeanClusterSize(), 2.5);
  // moved = the cluster objects, clusters in order, each exactly once.
  ASSERT_EQ(outcome.moved_objects.size(), 5u);
  EXPECT_EQ(outcome.moved_objects[0], 10u);
  EXPECT_EQ(outcome.moved_objects[4], 40u);
  std::set<ocb::Oid> unique(outcome.moved_objects.begin(),
                            outcome.moved_objects.end());
  EXPECT_EQ(unique.size(), outcome.moved_objects.size());
  EXPECT_EQ(outcome.moved_objects,
            (std::vector<ocb::Oid>{10, 11, 12, 50, 40}));
}

TEST(FinalizeOutcome, RejectsSingletonClusters) {
  const ocb::ObjectBase base = SmallBase();
  EXPECT_THROW(FinalizeOutcome({{7}}, base), util::Error);
}

TEST(FinalizeOutcome, RejectsOverlappingClusters) {
  const ocb::ObjectBase base = SmallBase();
  EXPECT_THROW(FinalizeOutcome({{1, 2}, {2, 3}}, base), util::Error);
}

TEST(FinalizeOutcome, RejectsOutOfRangeOids) {
  const ocb::ObjectBase base = SmallBase();
  EXPECT_THROW(FinalizeOutcome({{1, 99999}}, base), util::Error);
}

}  // namespace
}  // namespace voodb::cluster
