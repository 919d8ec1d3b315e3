/// \file test_ocb_object_base.cpp
/// \brief Tests for the OCB object-base generator.
#include <gtest/gtest.h>

#include "ocb/object_base.hpp"
#include "util/check.hpp"

namespace voodb::ocb {
namespace {

OcbParameters SmallParams() {
  OcbParameters p;
  p.num_classes = 10;
  p.max_refs_per_class = 4;
  p.num_objects = 500;
  p.object_locality = 50;
  p.seed = 77;
  return p;
}

TEST(ObjectBase, GeneratesRequestedObjectCount) {
  const ObjectBase base = ObjectBase::Generate(SmallParams());
  EXPECT_EQ(base.NumObjects(), 500u);
  for (Oid i = 0; i < 500; ++i) {
    EXPECT_EQ(base.Object(i).id, i);
  }
}

TEST(ObjectBase, RoundRobinClassAssignment) {
  const ObjectBase base = ObjectBase::Generate(SmallParams());
  for (Oid i = 0; i < base.NumObjects(); ++i) {
    EXPECT_EQ(base.Object(i).cls, static_cast<ClassId>(i % 10));
  }
  // Every class gets NO/NC instances.
  for (ClassId c = 0; c < 10; ++c) {
    EXPECT_EQ(base.InstancesOf(c), 50u);
  }
}

TEST(ObjectBase, SizesMatchClassDefinition) {
  const ObjectBase base = ObjectBase::Generate(SmallParams());
  uint64_t total = 0;
  for (Oid oid = 0; oid < base.NumObjects(); ++oid) {
    const ObjectDef obj = base.Object(oid);
    EXPECT_EQ(obj.size, base.schema().Class(obj.cls).instance_size);
    EXPECT_EQ(obj.size, base.SizeOf(oid));
    total += obj.size;
  }
  EXPECT_EQ(base.TotalBytes(), total);
}

TEST(ObjectBase, ReferencesPointToDemandedClass) {
  const ObjectBase base = ObjectBase::Generate(SmallParams());
  for (Oid oid = 0; oid < base.NumObjects(); ++oid) {
    const ObjectDef obj = base.Object(oid);
    const auto& class_refs = base.schema().Class(obj.cls).references;
    ASSERT_EQ(obj.references.size(), class_refs.size());
    for (size_t slot = 0; slot < obj.references.size(); ++slot) {
      const Oid target = obj.references[slot];
      if (target == kNullOid) continue;
      ASSERT_LT(target, base.NumObjects());
      EXPECT_EQ(base.Object(target).cls, class_refs[slot].target_class);
    }
  }
}

TEST(ObjectBase, ReferenceSlotsAreMostlyLive) {
  const ObjectBase base = ObjectBase::Generate(SmallParams());
  EXPECT_GT(base.MeanFanout(), 1.0);
}

TEST(ObjectBase, DeterministicInSeed) {
  const ObjectBase a = ObjectBase::Generate(SmallParams());
  const ObjectBase b = ObjectBase::Generate(SmallParams());
  ASSERT_EQ(a.NumObjects(), b.NumObjects());
  for (Oid i = 0; i < a.NumObjects(); ++i) {
    EXPECT_EQ(a.Object(i).references, b.Object(i).references);
  }
}

TEST(ObjectBase, DifferentSeedsShuffleReferences) {
  OcbParameters p1 = SmallParams();
  OcbParameters p2 = SmallParams();
  p2.seed = p1.seed + 1;
  const ObjectBase a = ObjectBase::Generate(p1);
  const ObjectBase b = ObjectBase::Generate(p2);
  int differing = 0;
  for (Oid i = 0; i < a.NumObjects(); ++i) {
    if (a.Object(i).references != b.Object(i).references) ++differing;
  }
  EXPECT_GT(differing, 100);
}

TEST(ObjectBase, GrowsWithParameters) {
  OcbParameters small = SmallParams();
  OcbParameters big = SmallParams();
  big.num_objects = 1000;
  EXPECT_GT(ObjectBase::Generate(big).TotalBytes(),
            ObjectBase::Generate(small).TotalBytes());
}

TEST(ObjectBase, PaperReferenceBaseSizes) {
  // §4.3: the NC=50 / NO=20000 base occupies ~20 MB in Texas and ~28 MB
  // in O2.  Check the payload is in the right range (~16 MB payload
  // packs to ~19 MB at 4 KB pages).
  OcbParameters p;
  p.num_classes = 50;
  p.num_objects = 20000;
  const ObjectBase base = ObjectBase::Generate(p);
  const double mb = static_cast<double>(base.TotalBytes()) / (1024 * 1024);
  EXPECT_GT(mb, 12.0);
  EXPECT_LT(mb, 22.0);
}

TEST(ObjectBase, OutOfRangeAccessThrows) {
  const ObjectBase base = ObjectBase::Generate(SmallParams());
  EXPECT_THROW(base.Object(500), util::Error);
  EXPECT_THROW(base.InstancesOf(10), util::Error);
}

/// FNV-1a over every reference row of `base`: each row's length, then its
/// slots in order.
uint64_t ReferenceGraphDigest(const ObjectBase& base) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (Oid oid = 0; oid < base.NumObjects(); ++oid) {
    const OidSpan row = base.References(oid);
    fold(row.size());
    for (const Oid target : row) fold(target);
  }
  return h;
}

TEST(ObjectBase, ReferenceGraphMatchesGolden) {
  // Recorded from the generator that drew each slot with UniformInt and
  // wrapped and snapped candidates with `%`: the divisions are gone, the
  // graph must not move.
  struct Case {
    const char* name;
    uint64_t objects;
    uint32_t classes;
    uint64_t locality;
    Distribution distribution;
    uint64_t digest;
  };
  const Case cases[] = {
      // The perfbench shapes (contention, ycsb_hot, dstc).
      {"20000/20", 20000, 20, 100, Distribution::kUniform,
       0xd57548f8bfc273ad},
      {"8000/10", 8000, 10, 100, Distribution::kUniform,
       0x949cd7011558ff7d},
      {"20000/50", 20000, 50, 100, Distribution::kUniform,
       0x2ab80abee92fc3d9},
      {"zipf", 5000, 20, 100, Distribution::kZipf,
       0x8483801eeb7997e1},
      {"normal", 5000, 20, 100, Distribution::kNormal,
       0x03d964daa5097691},
      // OLOCREF at and past NO: the window is the whole base.
      {"locality=NO", 600, 7, 600, Distribution::kUniform,
       0xb2524cb89e4b287a},
      {"locality>NO", 600, 7, 5000, Distribution::kUniform,
       0xb2524cb89e4b287a},
      // NC not dividing NO: the last round-robin row is partial, so some
      // snapped candidates land past NO and wrap.
      {"1000/7", 1000, 7, 40, Distribution::kUniform,
       0xd2c58333ede0e4a0},
      // NC > NO: classes 30..49 have no instances (dangling slots).
      {"30/50", 30, 50, 100, Distribution::kUniform,
       0x5cbae16322891c80},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    OcbParameters p;
    p.num_objects = c.objects;
    p.num_classes = c.classes;
    p.object_locality = c.locality;
    p.reference_distribution = c.distribution;
    const ObjectBase base = ObjectBase::Generate(p);
    EXPECT_EQ(ReferenceGraphDigest(base), c.digest);
  }
}

/// Property sweep over distributions: generated references stay valid.
class ObjectBaseDistributions
    : public ::testing::TestWithParam<Distribution> {};

TEST_P(ObjectBaseDistributions, ReferencesAlwaysValid) {
  OcbParameters p = SmallParams();
  p.reference_distribution = GetParam();
  const ObjectBase base = ObjectBase::Generate(p);
  for (Oid oid = 0; oid < base.NumObjects(); ++oid) {
    for (Oid target : base.References(oid)) {
      if (target != kNullOid) {
        EXPECT_LT(target, base.NumObjects());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, ObjectBaseDistributions,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kZipf,
                                           Distribution::kNormal));

}  // namespace
}  // namespace voodb::ocb
