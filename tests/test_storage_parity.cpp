/// \file test_storage_parity.cpp
/// \brief Parity properties of the data-oriented storage engine.
///
/// Three independent oracles guard the data-oriented storage engine:
///
/// * the CSR `ObjectBase::Generate` is bit-identical — ids, classes,
///   sizes, reference targets, TotalBytes, MeanFanout — to an embedded
///   copy of the legacy per-object-vector generator, across a grid of
///   seeds and OLOCREF locality windows (including windows at and beyond
///   the base size);
/// * the flat-frame BufferManager behaves exactly like a transparent
///   reference cache built on sorted maps (std::map residency, recency
///   counters) on random access traces: same hit/miss outcome per
///   access, same eviction count, same final residency and dirty set;
/// * golden hit/miss/eviction/write-back counters of the LRU and CLOCK
///   caches on a depth-first traversal page trace and a Zipf page trace,
///   recorded while the flat cache still ran side by side with the
///   map-based cache it replaced and matched it on every count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/placement.hpp"

namespace voodb {
namespace {

using ocb::ClassDef;
using ocb::ClassId;
using ocb::Distribution;
using ocb::ObjectBase;
using ocb::OcbParameters;
using ocb::Oid;
using ocb::Schema;
using storage::BufferManager;
using storage::PageId;
using storage::ReplacementPolicy;

// --- The legacy generator, verbatim modulo naming ---------------------------

struct LegacyObjectDef {
  Oid id = ocb::kNullOid;
  ClassId cls = 0;
  uint32_t size = 0;
  std::vector<Oid> references;
};

struct LegacyBase {
  Schema schema;
  std::vector<LegacyObjectDef> objects;
  std::vector<uint64_t> instances_per_class;
  uint64_t total_bytes = 0;

  double MeanFanout() const {
    if (objects.empty()) return 0.0;
    uint64_t refs = 0;
    for (const auto& obj : objects) {
      for (Oid r : obj.references) {
        if (r != ocb::kNullOid) ++refs;
      }
    }
    return static_cast<double>(refs) / static_cast<double>(objects.size());
  }
};

LegacyBase LegacyGenerate(const OcbParameters& params) {
  params.Validate();
  LegacyBase base;
  desp::RandomStream root_stream(params.seed);
  base.schema = Schema::Generate(params, root_stream.Derive(1));
  desp::RandomStream ref_stream = root_stream.Derive(2);

  const uint64_t no = params.num_objects;
  const uint32_t nc = params.num_classes;
  base.objects.resize(no);
  base.instances_per_class.assign(nc, 0);

  for (Oid i = 0; i < no; ++i) {
    LegacyObjectDef& obj = base.objects[i];
    obj.id = i;
    obj.cls = static_cast<ClassId>(i % nc);
    const ClassDef& cls = base.schema.Class(obj.cls);
    obj.size = cls.instance_size;
    base.total_bytes += obj.size;
    ++base.instances_per_class[obj.cls];
    obj.references.assign(cls.references.size(), ocb::kNullOid);
  }

  const auto window_limit = static_cast<int64_t>(
      std::min<uint64_t>(params.object_locality, no));
  for (Oid i = 0; i < no; ++i) {
    LegacyObjectDef& obj = base.objects[i];
    const ClassDef& cls = base.schema.Class(obj.cls);
    for (size_t slot = 0; slot < obj.references.size(); ++slot) {
      const ClassId target_class = cls.references[slot].target_class;
      if (base.instances_per_class[target_class] == 0) continue;  // dangling
      int64_t offset = 0;
      switch (params.reference_distribution) {
        case Distribution::kUniform:
          offset = ref_stream.UniformInt(0, window_limit - 1);
          break;
        case Distribution::kZipf:
          offset = ref_stream.Zipf(window_limit, params.zipf_skew);
          break;
        case Distribution::kNormal: {
          const double raw = ref_stream.Normal(
              0.0, static_cast<double>(window_limit) / 4.0);
          offset = static_cast<int64_t>(std::llround(std::fabs(raw))) %
                   window_limit;
          break;
        }
      }
      const uint64_t candidate = (i + static_cast<uint64_t>(offset)) % no;
      uint64_t snapped = candidate - (candidate % nc) + target_class;
      if (snapped >= no) {
        snapped = target_class;
      }
      obj.references[slot] = snapped;
    }
  }
  return base;
}

void ExpectBitIdentical(const OcbParameters& params) {
  const ObjectBase csr = ObjectBase::Generate(params);
  const LegacyBase legacy = LegacyGenerate(params);
  SCOPED_TRACE("seed=" + std::to_string(params.seed) +
               " olocref=" + std::to_string(params.object_locality));
  ASSERT_EQ(csr.NumObjects(), legacy.objects.size());
  EXPECT_EQ(csr.TotalBytes(), legacy.total_bytes);
  EXPECT_DOUBLE_EQ(csr.MeanFanout(), legacy.MeanFanout());
  for (ClassId c = 0; c < params.num_classes; ++c) {
    EXPECT_EQ(csr.InstancesOf(c), legacy.instances_per_class[c]);
  }
  for (Oid oid = 0; oid < csr.NumObjects(); ++oid) {
    const ocb::ObjectDef view = csr.Object(oid);
    const LegacyObjectDef& obj = legacy.objects[oid];
    ASSERT_EQ(view.id, obj.id);
    ASSERT_EQ(view.cls, obj.cls);
    ASSERT_EQ(view.size, obj.size);
    ASSERT_EQ(view.references.size(), obj.references.size());
    for (size_t slot = 0; slot < obj.references.size(); ++slot) {
      ASSERT_EQ(view.references[slot], obj.references[slot])
          << "oid " << oid << " slot " << slot;
    }
  }
}

TEST(CsrGeneratorParity, BitIdenticalAcrossSeedAndLocalityGrid) {
  for (const uint64_t seed : {1u, 42u, 1999u, 31337u}) {
    for (const uint64_t olocref : {1u, 7u, 100u, 400u, 5000u}) {
      OcbParameters p;
      p.num_classes = 20;
      p.max_refs_per_class = 6;
      p.num_objects = 400;
      p.object_locality = olocref;  // windows up to 12.5x the base size
      p.seed = seed;
      ExpectBitIdentical(p);
    }
  }
}

TEST(CsrGeneratorParity, BitIdenticalAcrossDistributions) {
  for (const Distribution dist :
       {Distribution::kUniform, Distribution::kZipf, Distribution::kNormal}) {
    OcbParameters p;
    p.num_classes = 10;
    p.num_objects = 300;
    p.reference_distribution = dist;
    p.seed = 7;
    ExpectBitIdentical(p);
  }
}

TEST(CsrGeneratorParity, BitIdenticalOnSparseBase) {
  // More classes than objects: empty classes force dangling slots.
  OcbParameters p;
  p.num_classes = 50;
  p.num_objects = 30;
  p.object_locality = 1;
  p.seed = 11;
  ExpectBitIdentical(p);
}

// --- Flat-frame cache vs a sorted-map reference cache -----------------------

/// A transparent LRU cache built on sorted maps: residency + dirty in a
/// std::map<PageId, ...>, recency as a monotone counter in a second
/// sorted map keyed by stamp.  Slow and obviously correct.
class SortedMapLruCache {
 public:
  explicit SortedMapLruCache(uint64_t capacity) : capacity_(capacity) {}

  /// Returns hit; mirrors BufferManager::Access bookkeeping.
  bool Access(PageId page, bool write) {
    const auto it = pages_.find(page);
    if (it != pages_.end()) {
      recency_.erase(it->second.stamp);
      it->second.stamp = ++clock_;
      it->second.dirty = it->second.dirty || write;
      recency_.emplace(it->second.stamp, page);
      return true;
    }
    while (pages_.size() >= capacity_) {
      const auto oldest = recency_.begin();
      pages_.erase(oldest->second);
      recency_.erase(oldest);
      ++evictions_;
    }
    pages_.emplace(page, Meta{++clock_, write});
    recency_.emplace(clock_, page);
    return false;
  }

  uint64_t evictions() const { return evictions_; }

  std::map<PageId, bool> ResidentDirty() const {
    std::map<PageId, bool> out;
    for (const auto& [page, meta] : pages_) out.emplace(page, meta.dirty);
    return out;
  }

 private:
  struct Meta {
    uint64_t stamp;
    bool dirty;
  };
  uint64_t capacity_;
  uint64_t clock_ = 0;
  uint64_t evictions_ = 0;
  std::map<PageId, Meta> pages_;
  std::map<uint64_t, PageId> recency_;
};

TEST(FlatFrameCacheModel, MatchesSortedMapReferenceOnRandomTraces) {
  for (const uint64_t capacity : {2u, 8u, 33u}) {
    for (const uint64_t seed : {3u, 17u, 91u}) {
      BufferManager flat(capacity, ReplacementPolicy::kLru);
      SortedMapLruCache reference(capacity);
      desp::RandomStream rng(seed);
      for (int step = 0; step < 20000; ++step) {
        const PageId page = static_cast<PageId>(rng.UniformInt(0, 199));
        const bool write = rng.Bernoulli(0.3);
        const bool flat_hit = flat.Access(page, write).hit;
        const bool ref_hit = reference.Access(page, write);
        ASSERT_EQ(flat_hit, ref_hit)
            << "capacity " << capacity << " seed " << seed << " step "
            << step;
      }
      EXPECT_EQ(flat.stats().evictions, reference.evictions());
      const std::map<PageId, bool> residents = reference.ResidentDirty();
      EXPECT_EQ(flat.resident_pages(), residents.size());
      uint64_t dirty = 0;
      for (const auto& [page, is_dirty] : residents) {
        EXPECT_TRUE(flat.Contains(page));
        dirty += is_dirty ? 1 : 0;
      }
      EXPECT_EQ(flat.DirtyPages(), dirty);
    }
  }
}

// --- Golden counters of the flat-frame cache --------------------------------

/// The page traces behind the goldens: a 4000-object base (Table 5
/// defaults otherwise), optimized-sequential placement on 4 KB pages, and
/// a cache of max(64, pages / 32) frames so both traces spill.
struct GoldenTraces {
  uint64_t num_pages = 0;
  uint64_t cache_pages = 0;
  /// 200 depth-first visit-once walks from strided roots, each visited
  /// object resolved to the pages of its span.
  std::vector<PageId> traversal;
  /// 200 * 64 Zipf(0.9) draws over the page space, seed 42.
  std::vector<PageId> zipf;
};

const GoldenTraces& Traces() {
  static const GoldenTraces traces = [] {
    OcbParameters params;
    params.num_objects = 4000;
    const ObjectBase base = ObjectBase::Generate(params);
    const storage::Placement placement = storage::Placement::Build(
        base, 4096, storage::PlacementPolicy::kOptimizedSequential);
    GoldenTraces t;
    t.num_pages = placement.NumPages();
    t.cache_pages = std::max<uint64_t>(64, t.num_pages / 32);
    const uint64_t walks = 200;
    const uint64_t no = base.NumObjects();
    std::vector<uint64_t> stamp(no, 0);
    std::vector<std::pair<Oid, uint32_t>> stack;
    const auto visit = [&](Oid oid) {
      const storage::PageSpan span = placement.SpanOf(oid);
      for (uint32_t i = 0; i < span.count; ++i) {
        t.traversal.push_back(span.first + i);
      }
    };
    for (uint64_t walk = 1; walk <= walks; ++walk) {
      const Oid root = ((walk - 1) * 9973) % no;
      stamp[root] = walk;
      visit(root);
      stack.assign(1, {root, 0});
      while (!stack.empty()) {
        const auto [oid, level] = stack.back();
        stack.pop_back();
        if (level >= params.hierarchy_depth) continue;
        for (const Oid ref : base.References(oid)) {
          if (ref == ocb::kNullOid || stamp[ref] == walk) continue;
          stamp[ref] = walk;
          visit(ref);
          stack.emplace_back(ref, level + 1);
        }
      }
    }
    desp::RandomStream rng(42);
    t.zipf.resize(walks * 64);
    for (PageId& page : t.zipf) {
      page = static_cast<PageId>(
          rng.Zipf(static_cast<int64_t>(t.num_pages), 0.9));
    }
    return t;
  }();
  return traces;
}

/// Replays `trace` (a write on every 16th access) and returns the stats.
storage::BufferStats Replay(const std::vector<PageId>& trace,
                            ReplacementPolicy policy) {
  BufferManager cache(Traces().cache_pages, policy);
  std::vector<storage::PageIo> ios;
  for (size_t i = 0; i < trace.size(); ++i) {
    ios.clear();
    cache.AccessInto(trace[i], (i & 15) == 0, ios);
  }
  return cache.stats();
}

void ExpectCounts(const storage::BufferStats& stats, uint64_t hits,
                  uint64_t misses, uint64_t evictions, uint64_t writebacks) {
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.evictions, evictions);
  EXPECT_EQ(stats.writebacks, writebacks);
}

TEST(FlatFrameCacheGolden, TracesHaveTheRecordedShape) {
  EXPECT_EQ(Traces().num_pages, 942u);
  EXPECT_EQ(Traces().cache_pages, 64u);
  EXPECT_EQ(Traces().traversal.size(), 40613u);
  EXPECT_EQ(Traces().zipf.size(), 12800u);
}

TEST(FlatFrameCacheGolden, LruOnTraversalTrace) {
  ExpectCounts(Replay(Traces().traversal, ReplacementPolicy::kLru), 21098,
               19515, 19451, 2321);
}

TEST(FlatFrameCacheGolden, ClockOnTraversalTrace) {
  ExpectCounts(Replay(Traces().traversal, ReplacementPolicy::kClock), 20839,
               19774, 19710, 2310);
}

TEST(FlatFrameCacheGolden, LruOnZipfTrace) {
  ExpectCounts(Replay(Traces().zipf, ReplacementPolicy::kLru), 5100, 7700,
               7636, 629);
}

TEST(FlatFrameCacheGolden, ClockOnZipfTrace) {
  ExpectCounts(Replay(Traces().zipf, ReplacementPolicy::kClock), 5323, 7477,
               7413, 594);
}

}  // namespace
}  // namespace voodb
