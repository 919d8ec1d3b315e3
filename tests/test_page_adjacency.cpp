/// \file test_page_adjacency.cpp
/// \brief Dedicated unit tests for storage::PageAdjacency (rows computed
/// on first read, in any order, and after a relocation re-point) and
/// util::IdSpan edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "ocb/object_base.hpp"
#include "storage/page_adjacency.hpp"
#include "storage/placement.hpp"
#include "util/check.hpp"
#include "util/span.hpp"

namespace voodb::storage {
namespace {

ocb::ObjectBase SmallBase() {
  ocb::OcbParameters params;
  params.num_classes = 6;
  params.num_objects = 400;
  params.max_refs_per_class = 5;
  return ocb::ObjectBase::Generate(params);
}

/// Page-sized instances over a sparse schema (NC > NO, so many
/// reference slots dangle) with a minimal locality window: pages whose
/// objects' references all dangle produce empty rows, pages reaching
/// exactly one neighbour produce single-element rows.
ocb::ObjectBase EdgeShapeBase() {
  ocb::OcbParameters params;
  params.num_classes = 200;
  params.num_objects = 120;
  params.max_refs_per_class = 2;
  params.base_instance_size = 3600;
  params.class_size_growth = 0;
  params.object_locality = 1;
  return ocb::ObjectBase::Generate(params);
}

/// Brute-force reference adjacency of one page: the deduplicated sorted
/// set of pages holding objects referenced from `page`, excluding the
/// page itself.
std::vector<PageId> ExpectedRow(const ocb::ObjectBase& base,
                                const Placement& placement, PageId page) {
  std::set<PageId> pages;
  for (const ocb::Oid oid : placement.ObjectsOn(page)) {
    for (const ocb::Oid ref : base.References(oid)) {
      if (ref == ocb::kNullOid) continue;
      const PageSpan span = placement.SpanOf(ref);
      for (uint32_t i = 0; i < span.count; ++i) {
        if (span.first + i != page) pages.insert(span.first + i);
      }
    }
  }
  return {pages.begin(), pages.end()};
}

/// Compares every row of the CSR index against the brute-force
/// recomputation, checking sortedness, deduplication and
/// self-exclusion; returns (empty rows, single-element rows).
std::pair<size_t, size_t> CheckAllRows(const ocb::ObjectBase& base,
                                       const Placement& placement) {
  PageAdjacency adjacency;
  adjacency.Rebuild(base, placement);
  EXPECT_EQ(adjacency.NumPages(), placement.NumPages());
  size_t empty_rows = 0;
  size_t single_rows = 0;
  for (PageId p = 0; p < adjacency.NumPages(); ++p) {
    const std::vector<PageId> expected = ExpectedRow(base, placement, p);
    const PageIdSpan row = adjacency.RowOf(p);
    EXPECT_EQ(row.size(), expected.size()) << "page " << p;
    if (row.size() == expected.size()) {
      EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()))
          << "page " << p;
    }
    // Rows are sorted, deduplicated, and never contain the page itself.
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "page " << p;
    EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end())
        << "page " << p;
    EXPECT_TRUE(std::find(row.begin(), row.end(), p) == row.end())
        << "page " << p;
    empty_rows += row.empty() ? 1 : 0;
    single_rows += row.size() == 1 ? 1 : 0;
  }
  return {empty_rows, single_rows};
}

TEST(PageAdjacency, EveryRowMatchesBruteForceRecomputation) {
  const ocb::ObjectBase base = SmallBase();
  const Placement placement = Placement::Build(
      base, /*page_size=*/4096, PlacementPolicy::kOptimizedSequential, 1.0);
  CheckAllRows(base, placement);
}

TEST(PageAdjacency, EdgeShapedBaseExercisesEmptyAndSingleRows) {
  const ocb::ObjectBase base = EdgeShapeBase();
  const Placement placement = Placement::Build(
      base, /*page_size=*/4096, PlacementPolicy::kSequential, 1.0);
  const auto [empty_rows, single_rows] = CheckAllRows(base, placement);
  // The edge base must actually exhibit the shapes this test is about;
  // if generation parameters ever change so it no longer does, fail
  // loudly instead of silently losing coverage.
  EXPECT_GT(empty_rows, 0u) << "no empty rows";
  EXPECT_GT(single_rows, 0u) << "no single-element rows";
}

TEST(PageAdjacency, EmptyAndSingleElementRowsBehaveAsSpans) {
  const ocb::ObjectBase base = SmallBase();
  const Placement placement = Placement::Build(
      base, /*page_size=*/4096, PlacementPolicy::kSequential, 1.0);
  PageAdjacency adjacency;
  adjacency.Rebuild(base, placement);
  for (PageId p = 0; p < adjacency.NumPages(); ++p) {
    const PageIdSpan row = adjacency.RowOf(p);
    if (row.empty()) {
      EXPECT_EQ(row.size(), 0u);
      EXPECT_EQ(row.begin(), row.end());
    } else if (row.size() == 1) {
      EXPECT_EQ(row.front(), row.back());
      EXPECT_EQ(row[0], row.front());
      EXPECT_EQ(row.begin() + 1, row.end());
    }
  }
}

TEST(PageAdjacency, OutOfRangeRowIdThrows) {
  const ocb::ObjectBase base = SmallBase();
  const Placement placement = Placement::Build(
      base, /*page_size=*/4096, PlacementPolicy::kOptimizedSequential, 1.0);
  PageAdjacency adjacency;
  adjacency.Rebuild(base, placement);
  EXPECT_NO_THROW(adjacency.RowOf(adjacency.NumPages() - 1));
  EXPECT_THROW(adjacency.RowOf(adjacency.NumPages()), util::Error);
  EXPECT_THROW(adjacency.RowOf(adjacency.NumPages() + 100), util::Error);
  EXPECT_THROW(adjacency.RowOf(kNullPage), util::Error);

  // A never-rebuilt index covers no pages at all.
  PageAdjacency fresh;
  EXPECT_EQ(fresh.NumPages(), 0u);
  EXPECT_THROW(fresh.RowOf(0), util::Error);
}

/// Reads the rows of `pages` in the given order and compares each
/// against the brute-force recomputation (copying the row first: a span
/// is only valid until the next RowOf).
void CheckRowsInOrder(const ocb::ObjectBase& base, const Placement& placement,
                      PageAdjacency& adjacency,
                      const std::vector<PageId>& pages) {
  for (const PageId p : pages) {
    const PageIdSpan row = adjacency.RowOf(p);
    const std::vector<PageId> got(row.begin(), row.end());
    EXPECT_EQ(got, ExpectedRow(base, placement, p)) << "page " << p;
  }
}

TEST(PageAdjacency, RowsReadInShuffledOrderMatchBruteForce) {
  const ocb::ObjectBase base = SmallBase();
  const Placement placement = Placement::Build(
      base, /*page_size=*/4096, PlacementPolicy::kOptimizedSequential, 1.0);
  PageAdjacency adjacency;
  adjacency.Rebuild(base, placement);
  std::vector<PageId> pages(placement.NumPages());
  std::iota(pages.begin(), pages.end(), PageId{0});
  std::mt19937 rng(29);
  std::shuffle(pages.begin(), pages.end(), rng);
  CheckRowsInOrder(base, placement, adjacency, pages);
  // Memoized rows read back the same, in yet another order.
  std::shuffle(pages.begin(), pages.end(), rng);
  CheckRowsInOrder(base, placement, adjacency, pages);
}

TEST(PageAdjacency, RePointAfterRelocationMatchesBruteForceIncludingTail) {
  const ocb::ObjectBase base = SmallBase();
  const Placement before = Placement::Build(
      base, /*page_size=*/4096, PlacementPolicy::kOptimizedSequential, 1.0);
  PageAdjacency adjacency;
  adjacency.Rebuild(base, before);
  // Memoize some rows of the old page space first: the re-point must
  // drop them.
  for (PageId p = 0; p < before.NumPages(); p += 3) adjacency.RowOf(p);

  std::vector<ocb::Oid> moved;
  for (ocb::Oid oid = 0; oid < base.NumObjects(); oid += 7) {
    moved.push_back(oid);
  }
  const Placement after =
      Placement::RelocateToTail(before, base, moved, 1.0);
  ASSERT_GT(after.NumPages(), before.NumPages());
  adjacency.Rebuild(base, after);
  EXPECT_EQ(adjacency.NumPages(), after.NumPages());
  std::vector<PageId> pages(after.NumPages());
  std::iota(pages.begin(), pages.end(), PageId{0});
  std::shuffle(pages.begin(), pages.end(), std::mt19937(31));
  CheckRowsInOrder(base, after, adjacency, pages);
  EXPECT_THROW(adjacency.RowOf(after.NumPages()), util::Error);
}

TEST(IdSpan, EmptySpanEdgeCases) {
  const util::IdSpan<uint64_t> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.begin(), empty.end());
  EXPECT_EQ(empty.data(), nullptr);
  // Two empty spans compare equal regardless of their data pointers.
  const uint64_t value = 7;
  const util::IdSpan<uint64_t> empty_with_data(&value, 0);
  EXPECT_TRUE(empty == empty_with_data);
  EXPECT_FALSE(empty != empty_with_data);
  size_t visited = 0;
  for (const uint64_t v : empty) {
    (void)v;
    ++visited;
  }
  EXPECT_EQ(visited, 0u);
}

TEST(IdSpan, SingleElementSpanEdgeCases) {
  const uint64_t value = 42;
  const util::IdSpan<uint64_t> one(&value, 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front(), 42u);
  EXPECT_EQ(one.back(), 42u);
  EXPECT_EQ(one[0], 42u);
  EXPECT_EQ(one.begin() + 1, one.end());
  const util::IdSpan<uint64_t> empty;
  EXPECT_FALSE(one == empty);
  EXPECT_TRUE(one != empty);
}

TEST(IdSpan, EqualityComparesContentsNotPointers) {
  const uint64_t a[] = {1, 2, 3};
  const uint64_t b[] = {1, 2, 3};
  const uint64_t c[] = {1, 2, 4};
  EXPECT_TRUE((util::IdSpan<uint64_t>(a, 3)) ==
              (util::IdSpan<uint64_t>(b, 3)));
  EXPECT_TRUE((util::IdSpan<uint64_t>(a, 3)) !=
              (util::IdSpan<uint64_t>(c, 3)));
  EXPECT_TRUE((util::IdSpan<uint64_t>(a, 2)) !=
              (util::IdSpan<uint64_t>(b, 3)));
  // A span is a view: it reflects the owning array, not a copy.
  uint64_t mutable_row[] = {5, 6};
  const util::IdSpan<uint64_t> view(mutable_row, 2);
  mutable_row[1] = 9;
  EXPECT_EQ(view[1], 9u);
}

}  // namespace
}  // namespace voodb::storage
