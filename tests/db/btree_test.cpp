#include "db/btree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

namespace dclue::db {
namespace {

TEST(BTree, EmptyTree) {
  BTree<std::uint64_t, int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.find(42).has_value());
  EXPECT_FALSE(t.begin().valid());
}

TEST(BTree, InsertAndFind) {
  BTree<std::uint64_t, int> t;
  t.insert(5, 50);
  t.insert(1, 10);
  t.insert(9, 90);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(*t.find(5), 50);
  EXPECT_EQ(*t.find(1), 10);
  EXPECT_EQ(*t.find(9), 90);
  EXPECT_FALSE(t.find(7).has_value());
}

TEST(BTree, OverwriteKeepsSize) {
  BTree<std::uint64_t, int> t;
  t.insert(5, 50);
  t.insert(5, 55);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(5), 55);
}

TEST(BTree, ManySequentialInsertionsSplitCorrectly) {
  BTree<std::uint64_t, int> t;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) t.insert(static_cast<std::uint64_t>(i), i * 2);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(*t.find(static_cast<std::uint64_t>(i)), i * 2) << i;
  }
  EXPECT_GT(t.height(), 1);
}

TEST(BTree, RandomInsertionsMatchReferenceMap) {
  BTree<std::uint64_t, int> t;
  std::map<std::uint64_t, int> ref;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    std::uint64_t k = rng() % 50'000;
    t.insert(k, i);
    ref[k] = i;
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(*t.find(k), v) << k;
  }
}

TEST(BTree, OrderedIterationFromBegin) {
  BTree<std::uint64_t, int> t;
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5'000; ++i) {
    std::uint64_t k = rng();
    keys.push_back(k);
    t.insert(k, 0);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::size_t idx = 0;
  for (auto it = t.begin(); it.valid(); it.next()) {
    ASSERT_LT(idx, keys.size());
    ASSERT_EQ(it.key(), keys[idx]);
    ++idx;
  }
  EXPECT_EQ(idx, keys.size());
}

TEST(BTree, LowerBoundFindsFirstNotLess) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 1000; k += 10) t.insert(k, static_cast<int>(k));
  auto it = t.lower_bound(95);
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 100u);
  it = t.lower_bound(100);
  EXPECT_EQ(it.key(), 100u);
  it = t.lower_bound(991);
  EXPECT_FALSE(it.valid());
}

TEST(BTree, EraseRemovesAndIterationStaysSorted) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 2000; ++k) t.insert(k, 1);
  for (std::uint64_t k = 0; k < 2000; k += 2) EXPECT_TRUE(t.erase(k));
  EXPECT_FALSE(t.erase(0));  // already gone
  EXPECT_EQ(t.size(), 1000u);
  std::uint64_t expect = 1;
  for (auto it = t.begin(); it.valid(); it.next()) {
    ASSERT_EQ(it.key(), expect);
    expect += 2;
  }
}

TEST(BTree, EraseThenReinsert) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 500; ++k) t.insert(k, 1);
  for (std::uint64_t k = 0; k < 500; ++k) t.erase(k);
  EXPECT_EQ(t.size(), 0u);
  for (std::uint64_t k = 0; k < 500; ++k) t.insert(k, 2);
  EXPECT_EQ(t.size(), 500u);
  EXPECT_EQ(*t.find(250), 2);
}

TEST(BTree, HeightGrowsLogarithmically) {
  BTree<std::uint64_t, int, 8> t;  // small fanout to force depth
  for (std::uint64_t k = 0; k < 4096; ++k) t.insert(k, 0);
  EXPECT_GE(t.height(), 4);
  EXPECT_LE(t.height(), 8);
}

TEST(BTree, LeafCountConsistentWithSize) {
  BTree<std::uint64_t, int> t;
  for (std::uint64_t k = 0; k < 10'000; ++k) t.insert(k, 0);
  std::size_t leaves = t.leaf_count();
  EXPECT_GE(leaves, 10'000u / 64);
  EXPECT_LE(leaves, 10'000u / 16);
}

TEST(BTree, CachedCountersMatchStructureUnderChurn) {
  // height() / leaf_count() are maintained incrementally; verify them
  // against a from-scratch walk via the iterator and known shape bounds
  // while the tree grows and drains.
  BTree<std::uint64_t, int, 8> t;
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(t.leaf_count(), 1u);
  for (std::uint64_t k = 0; k < 4096; ++k) t.insert(k, 0);
  EXPECT_GE(t.height(), 4);
  EXPECT_GE(t.leaf_count(), 4096u / 8);
  EXPECT_LE(t.leaf_count(), 4096u / 2);
  const int peak_height = t.height();
  const std::size_t peak_leaves = t.leaf_count();
  for (std::uint64_t k = 0; k < 4096; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_TRUE(t.empty());
  // A fully drained tree collapses back to a single (possibly empty) leaf.
  EXPECT_LT(t.height(), peak_height);
  EXPECT_LT(t.leaf_count(), peak_leaves);
  EXPECT_LE(t.leaf_count(), 1u);
  // Refill: recycled pool nodes behave like fresh ones.
  for (std::uint64_t k = 0; k < 4096; ++k) t.insert(k, 1);
  EXPECT_EQ(t.size(), 4096u);
  EXPECT_EQ(*t.find(4095), 1);
}

TEST(BTree, EraseUnlinksEmptyLeavesFromChain) {
  BTree<std::uint64_t, int, 8> t;
  for (std::uint64_t k = 0; k < 1024; ++k) t.insert(k, 0);
  const std::size_t leaves_full = t.leaf_count();
  // Drain the low half: its leaves must leave the chain (iteration no
  // longer walks them and leaf_count reflects live structure).
  for (std::uint64_t k = 0; k < 512; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_LT(t.leaf_count(), leaves_full);
  auto it = t.begin();
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 512u);  // first live key reached without skipping
  std::size_t walked = 0;
  for (; it.valid(); it.next()) ++walked;
  EXPECT_EQ(walked, 512u);
  EXPECT_GT(t.pooled_free_nodes(), 0u);  // retired leaves went to the pool
}

/// Property sweep: random interleavings of insert/erase stay consistent with
/// a reference map.
class BTreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BTreeFuzz, MatchesReferenceUnderMixedWorkload) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  BTree<std::uint64_t, int, 8> t;
  std::map<std::uint64_t, int> ref;
  for (int i = 0; i < 5'000; ++i) {
    std::uint64_t k = rng() % 600;
    if (rng() % 3 == 0) {
      EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
    } else {
      t.insert(k, i);
      ref[k] = i;
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  auto it = t.begin();
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(it.valid());
    ASSERT_EQ(it.key(), k);
    ASSERT_EQ(it.value(), v);
    it.next();
  }
  EXPECT_FALSE(it.valid());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzz, ::testing::Range(1, 9));

// --- loading and runtime splits --------------------------------------------

/// find() and lower_bound() agree with \p ref for every key in [0, span].
template <typename Tree>
void expect_routes_match(const Tree& t, const std::map<std::uint64_t, int>& ref,
                         std::uint64_t span) {
  for (std::uint64_t k = 0; k <= span; ++k) {
    const auto hit = ref.find(k);
    const auto got = t.find(k);
    if (hit == ref.end()) {
      ASSERT_FALSE(got.has_value()) << k;
    } else {
      ASSERT_TRUE(got.has_value()) << k;
      ASSERT_EQ(*got, hit->second) << k;
    }
    const auto next = ref.lower_bound(k);
    const auto it = t.lower_bound(k);
    if (next == ref.end()) {
      ASSERT_FALSE(it.valid()) << k;
    } else {
      ASSERT_TRUE(it.valid()) << k;
      ASSERT_EQ(it.key(), next->first) << k;
      ASSERT_EQ(it.value(), next->second) << k;
    }
  }
}

/// Ordered iteration from begin() visits exactly \p ref.
template <typename Tree>
void expect_iteration_matches(const Tree& t,
                              const std::map<std::uint64_t, int>& ref) {
  EXPECT_EQ(t.size(), ref.size());
  auto it = t.begin();
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(it.valid()) << k;
    ASSERT_EQ(it.key(), k);
    ASSERT_EQ(it.value(), v) << k;
    it.next();
  }
  EXPECT_FALSE(it.valid());
}

TEST(BTree, AscendingLoadRoutesEveryKey) {
  BTree<std::uint64_t, int> t;
  constexpr std::uint64_t kKeys = 1'000'000;
  for (std::uint64_t k = 0; k < kKeys; ++k) t.insert(k, static_cast<int>(k));
  EXPECT_GT(t.leaf_count(), kKeys / 64);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(*t.find(k), static_cast<int>(k)) << k;
  }
  EXPECT_FALSE(t.find(kKeys).has_value());
  EXPECT_FALSE(t.lower_bound(kKeys).valid());
}

TEST(BTree, BulkLoadKeepsTreeShape) {
  // A fixed stream of random keys mixed with an ascending append run: the
  // split policy (middle split, high-end split for appends) decides the
  // shape, and these figures pin it.
  BTree<std::uint64_t, int> wide;
  BTree<std::uint64_t, int, 8> narrow;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t k = i % 4 == 0 ? rng() % 1'000'000 : 1'000'000 + i;
    wide.insert(k, i);
    narrow.insert(k, i);
  }
  EXPECT_EQ(wide.size(), 99'703u);
  EXPECT_EQ(wide.leaf_count(), 1'742u);
  EXPECT_EQ(wide.height(), 3);
  EXPECT_EQ(narrow.size(), 99'703u);
  EXPECT_EQ(narrow.leaf_count(), 15'177u);
  EXPECT_EQ(narrow.height(), 6);
}

TEST(BTree, LookupsInsideAndAfterBulkLoadMatchReferenceMap) {
  BTree<std::uint64_t, int, 8> t;  // small fanout: many splits
  std::map<std::uint64_t, int> ref;
  std::mt19937_64 rng(5);
  constexpr std::uint64_t kSpan = 20'000;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3'000; ++i) {
      const std::uint64_t k = rng() % kSpan;
      t.insert(k, i);
      ref[k] = i;
    }
    expect_routes_match(t, ref, kSpan);  // between load rounds and after
  }
  expect_iteration_matches(t, ref);
}

TEST(BTree, RuntimeSplitAfterBulkLoadRoutes) {
  BTree<std::uint64_t, int> t;
  std::map<std::uint64_t, int> ref;
  for (std::uint64_t k = 0; k < 20'000; k += 2) {
    t.insert(k, 1);
    ref[k] = 1;
  }
  // Odd keys into the middle of the packed leaves split them.
  const std::size_t leaves = t.leaf_count();
  for (std::uint64_t k = 9'001; k < 11'000; k += 2) {
    t.insert(k, 2);
    ref[k] = 2;
  }
  ASSERT_GT(t.leaf_count(), leaves);
  expect_routes_match(t, ref, 20'001);
  expect_iteration_matches(t, ref);
}

TEST(BTree, DistrictRangesGrowingAtTheirEndsMatchReferenceMap) {
  // TPC-C's order tables: one key range per district, each appended at its
  // own end (new-order) and drained from its front (delivery), so splits
  // and retires happen in the middle of the key space, not at its edge.
  BTree<std::uint64_t, int, 8> t;
  std::map<std::uint64_t, int> ref;
  std::mt19937_64 rng(17);
  constexpr std::uint64_t kDistricts = 20;
  constexpr std::uint64_t kPerDistrict = 1'000;  // key = d * 1000 + order
  std::vector<std::uint64_t> oldest(kDistricts, 1);
  std::vector<std::uint64_t> next(kDistricts, 1);
  const auto key = [](std::uint64_t d, std::uint64_t o) {
    return d * kPerDistrict + o;
  };
  for (std::uint64_t d = 0; d < kDistricts; ++d) {
    for (; next[d] <= 60; ++next[d]) {
      t.insert(key(d, next[d]), static_cast<int>(d));
      ref[key(d, next[d])] = static_cast<int>(d);
    }
  }
  for (int i = 0; i < 12'000; ++i) {
    const std::uint64_t d = rng() % kDistricts;
    const std::uint64_t op = rng() % 8;
    if (op < 4 && next[d] < kPerDistrict) {  // new order at the range's end
      t.insert(key(d, next[d]), i);
      ref[key(d, next[d])] = i;
      ++next[d];
    } else if (op < 7 && oldest[d] < next[d]) {  // deliver the oldest
      const std::uint64_t k = key(d, oldest[d]++);
      EXPECT_EQ(t.erase(k), ref.erase(k) > 0);  // may be gone already
    } else {  // erase an arbitrary key (absent keys included)
      const std::uint64_t k = key(d, rng() % kPerDistrict);
      EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
    }
    if (i % 2'000 == 0) expect_routes_match(t, ref, kDistricts * kPerDistrict);
  }
  expect_routes_match(t, ref, kDistricts * kPerDistrict);
  expect_iteration_matches(t, ref);
  EXPECT_GT(t.pooled_free_nodes(), 0u);  // delivered ranges retired leaves
}

/// Mixed insert/erase on the BTreeFuzz seeds, then a drained range whose
/// leaves retire and which is filled again: routing stays consistent with a
/// reference map throughout. (The name dates from a bulk-load scope the load
/// once ran inside; the checks are unchanged without it.)
class BTreeBulkFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BTreeBulkFuzz, RetiresInsideScopeKeepRoutingConsistent) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  BTree<std::uint64_t, int, 8> t;
  std::map<std::uint64_t, int> ref;
  constexpr std::uint64_t kSpan = 600;
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t k = rng() % kSpan;
    if (rng() % 3 == 0) {
      EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
    } else {
      t.insert(k, i);
      ref[k] = i;
    }
    if (i % 500 == 0) expect_routes_match(t, ref, kSpan);
  }
  // Drain a range so whole leaves retire.
  for (std::uint64_t k = 100; k < 300; ++k) {
    EXPECT_EQ(t.erase(k), ref.erase(k) > 0);
  }
  expect_routes_match(t, ref, kSpan);
  EXPECT_GT(t.pooled_free_nodes(), 0u);
  // Inserts into the drained range land where lookups find them.
  for (std::uint64_t k = 100; k < 300; k += 3) {
    t.insert(k, -1);
    ref[k] = -1;
  }
  expect_routes_match(t, ref, kSpan);
  expect_iteration_matches(t, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeBulkFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace dclue::db
