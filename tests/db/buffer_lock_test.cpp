#include <gtest/gtest.h>

#include "db/buffer_cache.hpp"
#include "db/lock_manager.hpp"
#include "db/log_manager.hpp"
#include "db/mvcc.hpp"
#include "sim/task.hpp"

namespace dclue::db {
namespace {

PageId pg(std::uint64_t n) { return make_page_id(TableId::kStock, false, n); }

TEST(BufferCache, MissThenHit) {
  BufferCache c(4);
  EXPECT_FALSE(c.contains(pg(1), PageMode::kShared));
  c.insert(pg(1), PageMode::kShared);
  EXPECT_TRUE(c.contains(pg(1), PageMode::kShared));
  EXPECT_FALSE(c.contains(pg(1), PageMode::kExclusive));
  c.upgrade(pg(1));
  EXPECT_TRUE(c.contains(pg(1), PageMode::kExclusive));
}

TEST(BufferCache, LruEviction) {
  BufferCache c(2);
  c.insert(pg(1), PageMode::kShared);
  c.insert(pg(2), PageMode::kShared);
  c.touch(pg(1));  // 2 becomes coldest
  auto evicted = c.insert(pg(3), PageMode::kShared);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], pg(2));
  EXPECT_TRUE(c.resident(pg(1)));
  EXPECT_TRUE(c.resident(pg(3)));
}

TEST(BufferCache, PinnedPagesAreNotEvicted) {
  BufferCache c(2);
  c.insert(pg(1), PageMode::kShared);
  c.pin(pg(1));
  c.insert(pg(2), PageMode::kShared);
  auto evicted = c.insert(pg(3), PageMode::kShared);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], pg(2));
  c.unpin(pg(1));
  evicted = c.insert(pg(4), PageMode::kShared);
  // Over capacity: two evictions allowed now that pg1 is unpinned.
  EXPECT_FALSE(evicted.empty());
}

TEST(BufferCache, InvalidateRemovesPage) {
  BufferCache c(4);
  c.insert(pg(1), PageMode::kExclusive);
  EXPECT_TRUE(c.invalidate(pg(1)));
  EXPECT_FALSE(c.resident(pg(1)));
  EXPECT_FALSE(c.invalidate(pg(1)));
}

TEST(BufferCache, StealForVersionsShrinksCapacity) {
  BufferCache c(4);
  for (int i = 0; i < 4; ++i) c.insert(pg(i), PageMode::kShared);
  auto stolen = c.steal_for_versions(2);
  EXPECT_EQ(stolen.size(), 2u);
  EXPECT_EQ(c.capacity(), 2u);
  c.restore_capacity(2);
  EXPECT_EQ(c.capacity(), 4u);
}

TEST(BufferCache, ReinsertExistingUpgradesMode) {
  BufferCache c(4);
  c.insert(pg(1), PageMode::kShared);
  c.insert(pg(1), PageMode::kExclusive);
  EXPECT_TRUE(c.contains(pg(1), PageMode::kExclusive));
  EXPECT_EQ(c.size(), 1u);
}

TEST(BufferCache, EvictionCostBoundedWithPinnedColdFront) {
  // Regression: eviction used to rescan the recency list from the front,
  // skipping pinned-cold pages on every call — O(pinned prefix) per insert.
  // With the unpinned sublist each eviction examines exactly one entry, no
  // matter how many pinned pages sit at the LRU front.
  constexpr std::size_t kCap = 256;
  constexpr std::size_t kPinned = 200;
  BufferCache c(kCap);
  for (std::size_t i = 0; i < kCap; ++i) c.insert(pg(i), PageMode::kShared);
  // Pin the coldest 200 pages: they stay parked at the recency front.
  for (std::size_t i = 0; i < kPinned; ++i) c.pin(pg(i));
  const auto scans_before = c.evict_scans().count();
  constexpr std::size_t kInserts = 1000;
  for (std::size_t i = 0; i < kInserts; ++i) {
    auto evicted = c.insert(pg(10000 + i), PageMode::kShared);
    ASSERT_EQ(evicted.size(), 1u) << i;
    EXPECT_GE(db::page_number(evicted[0]), kPinned);  // never a pinned page
  }
  // Exactly one entry examined per eviction: cost is per-eviction constant,
  // not proportional to the pinned prefix.
  EXPECT_EQ(c.evict_scans().count() - scans_before, kInserts);
  for (std::size_t i = 0; i < kPinned; ++i) EXPECT_TRUE(c.resident(pg(i)));
}

TEST(BufferCache, UnpinReentersEvictionOrderByRecency) {
  BufferCache c(3);
  c.insert(pg(1), PageMode::kShared);
  c.insert(pg(2), PageMode::kShared);
  c.insert(pg(3), PageMode::kShared);
  c.pin(pg(1));   // coldest, but protected
  c.unpin(pg(1)); // back in play at its recency position (still coldest)
  auto evicted = c.insert(pg(4), PageMode::kShared);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], pg(1));
}

TEST(BufferCache, TouchWhilePinnedKeepsRecencyForLater) {
  BufferCache c(3);
  c.insert(pg(1), PageMode::kShared);
  c.insert(pg(2), PageMode::kShared);
  c.insert(pg(3), PageMode::kShared);
  c.pin(pg(1));
  c.touch(pg(1));  // pinned page touched: now the *hottest*
  c.unpin(pg(1));
  // pg(2) is the coldest unpinned page after pg(1) moved to the hot end.
  auto evicted = c.insert(pg(4), PageMode::kShared);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], pg(2));
}

// The page index grows with residency, so inserts rehash it and every
// stored slot index (the one eviction erases through) must be re-derived.
class BufferCacheGrowth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BufferCacheGrowth, EvictsThroughStoredSlotsAcrossGrowth) {
  const std::size_t cap = GetParam();
  BufferCache c(cap);
  std::size_t growths = 0;
  std::size_t slots = c.index_slots();
  std::size_t wrong_victims = 0;
  for (std::size_t i = 0; i < 3 * cap; ++i) {
    const auto evicted = c.insert(pg(i), PageMode::kShared);
    if (c.index_slots() != slots) {
      ++growths;
      slots = c.index_slots();
    }
    if (i < cap) {
      wrong_victims += evicted.size();
    } else {
      wrong_victims += evicted.size() != 1 || evicted[0] != pg(i - cap);
    }
  }
  EXPECT_GE(growths, 3u);
  EXPECT_EQ(wrong_victims, 0u);
  EXPECT_EQ(c.size(), cap);
  // Exactly the last `cap` pages are resident.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 3 * cap; ++i) {
    mismatches += c.resident(pg(i)) != (i >= 2 * cap);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST_P(BufferCacheGrowth, PinAndInvalidateAcrossGrowth) {
  const std::size_t cap = GetParam();
  BufferCache c(cap);
  c.insert(pg(0), PageMode::kShared);
  c.pin(pg(0));
  c.insert(pg(1), PageMode::kShared);
  const std::size_t slots0 = c.index_slots();
  for (std::size_t i = 2; i < cap; ++i) c.insert(pg(i), PageMode::kShared);
  ASSERT_GT(c.index_slots(), slots0);  // both pages predate a growth step
  EXPECT_TRUE(c.invalidate(pg(1)));
  EXPECT_FALSE(c.resident(pg(1)));
  EXPECT_EQ(c.size(), cap - 1);
  // Refill, then churn: the pinned coldest page is skipped, and victims
  // follow recency from pg(2) on.
  c.insert(pg(cap), PageMode::kShared);
  for (std::size_t i = 1; i <= cap / 2; ++i) {
    const auto evicted = c.insert(pg(cap + i), PageMode::kShared);
    ASSERT_EQ(evicted.size(), 1u) << i;
    EXPECT_EQ(evicted[0], pg(1 + i)) << i;
  }
  EXPECT_TRUE(c.resident(pg(0)));
  c.unpin(pg(0));
  const std::size_t last = cap + cap / 2 + 1;
  const auto evicted = c.insert(pg(last), PageMode::kShared);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], pg(0));  // unpinned, it is the coldest again
  EXPECT_EQ(c.size(), cap);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i <= last; ++i) {
    mismatches += c.resident(pg(i)) != (i >= cap / 2 + 2);
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferCacheGrowth,
                         ::testing::Values(100, 1000, 5000));

TEST(BufferCache, IndexSizedByResidencyNotCapacity) {
  BufferCache c(std::size_t{1} << 20);
  for (std::size_t i = 0; i < 1000; ++i) c.insert(pg(i), PageMode::kShared);
  EXPECT_EQ(c.size(), 1000u);
  // 1,000 entries under the map's 7/8 load cap fit 2,048 slots.
  EXPECT_GE(c.index_slots(), 1000u);
  EXPECT_LE(c.index_slots(), 2048u);
}

TEST(BufferCache, InPlaceIndexRehashKeepsEvictionSlots) {
  // A tombstone flush rehashes the index without changing its size; stored
  // slot indices go stale all the same. Pages are picked by home group in
  // the 32-slot index (white-box: 16-slot groups, 7/8 load cap).
  auto homed_at = [](std::size_t group, std::size_t n) {
    std::vector<PageId> pages;
    for (std::uint64_t k = 1; pages.size() < n; ++k) {
      if (((sim::FlatHash64{}(pg(k)) & 31) >> 4) == group) pages.push_back(pg(k));
    }
    return pages;
  };
  const auto a = homed_at(0, 16);
  const auto b = homed_at(1, 16);
  BufferCache c(16);
  for (auto p : a) c.insert(p, PageMode::kShared);
  ASSERT_EQ(c.index_slots(), 32u);
  // Group 0 is packed: these invalidations leave 15 tombstones.
  for (std::size_t i = 0; i + 1 < a.size(); ++i) ASSERT_TRUE(c.invalidate(a[i]));
  // The 13th of these flushes them in place; the rest fill to capacity.
  for (std::size_t i = 0; i < 15; ++i) c.insert(b[i], PageMode::kShared);
  ASSERT_EQ(c.index_slots(), 32u);
  // Over capacity: the coldest page goes, erased through its stored slot.
  const auto evicted = c.insert(b[15], PageMode::kShared);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], a.back());
  EXPECT_FALSE(c.resident(a.back()));
  EXPECT_EQ(c.size(), 16u);
  for (auto p : b) EXPECT_TRUE(c.resident(p));
}

// ---------------------------------------------------------------------------

TEST(LockManager, TryAcquireConflictsAndReentrancy) {
  sim::Engine e;
  LockManager lm(e);
  EXPECT_TRUE(lm.try_acquire(100, 1));
  EXPECT_TRUE(lm.try_acquire(100, 1));   // reentrant
  EXPECT_FALSE(lm.try_acquire(100, 2));  // conflict
  EXPECT_TRUE(lm.try_acquire(200, 2));   // different lock
  lm.release(100, 1);
  EXPECT_TRUE(lm.try_acquire(100, 2));
}

TEST(LockManager, WaiterGrantedOnRelease) {
  sim::Engine e;
  LockManager lm(e);
  ASSERT_TRUE(lm.try_acquire(7, 1));
  bool granted = false;
  sim::spawn([](LockManager& lm, bool& g) -> sim::Task<void> {
    g = co_await lm.acquire_wait(7, 2, 0.0);
  }(lm, granted));
  e.after(1.0, [&lm] { lm.release(7, 1); });
  e.run();
  EXPECT_TRUE(granted);
  EXPECT_FALSE(lm.try_acquire(7, 3));  // txn 2 now holds it
}

TEST(LockManager, WaitersGrantedFifo) {
  sim::Engine e;
  LockManager lm(e);
  ASSERT_TRUE(lm.try_acquire(7, 1));
  std::vector<int> order;
  for (int i = 2; i <= 4; ++i) {
    sim::spawn([](LockManager& lm, std::vector<int>& order, int id) -> sim::Task<void> {
      if (co_await lm.acquire_wait(7, static_cast<TxnToken>(id), 0.0)) {
        order.push_back(id);
        lm.release(7, static_cast<TxnToken>(id));
      }
    }(lm, order, i));
  }
  e.after(1.0, [&lm] { lm.release(7, 1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

TEST(LockManager, WaitTimesOut) {
  sim::Engine e;
  LockManager lm(e);
  ASSERT_TRUE(lm.try_acquire(7, 1));
  bool granted = true;
  sim::Time when = 0.0;
  sim::spawn([](sim::Engine& e, LockManager& lm, bool& g, sim::Time& t) -> sim::Task<void> {
    g = co_await lm.acquire_wait(7, 2, 0.5);
    t = e.now();
  }(e, lm, granted, when));
  e.run();
  EXPECT_FALSE(granted);
  EXPECT_NEAR(when, 0.5, 1e-9);
  // Holder release must skip the abandoned waiter and free the lock.
  lm.release(7, 1);
  EXPECT_TRUE(lm.try_acquire(7, 3));
}

// ---------------------------------------------------------------------------

TEST(VersionManager, ChainHopsCountNewerVersions) {
  sim::Engine e;
  BufferCache cache(16);
  VersionManager vm(e, sim::megabytes(1), cache);
  PageId p = pg(1);
  vm.create_version(p, 0, 10, 128);
  vm.create_version(p, 0, 20, 128);
  vm.create_version(p, 0, 30, 128);
  EXPECT_EQ(vm.chain_hops(p, 0, 30), 0);  // sees newest
  EXPECT_EQ(vm.chain_hops(p, 0, 25), 1);
  EXPECT_EQ(vm.chain_hops(p, 0, 5), 3);
  EXPECT_EQ(vm.current_version(p, 0), 30u);
  EXPECT_EQ(vm.chain_hops(pg(2), 0, 100), 0);  // untouched subpage
}

TEST(VersionManager, OverflowStealsCachePages) {
  sim::Engine e;
  BufferCache cache(16);
  for (int i = 0; i < 16; ++i) cache.insert(pg(i), PageMode::kShared);
  VersionManager vm(e, 256, cache);  // tiny overflow area
  for (int i = 0; i < 10; ++i) vm.create_version(pg(100), i, 10 + i, 128);
  EXPECT_GT(vm.cache_pages_stolen(), 0u);
  EXPECT_LT(cache.capacity(), 16u);
}

TEST(VersionManager, GcReclaimsOldVersions) {
  sim::Engine e;
  BufferCache cache(16);
  VersionManager vm(e, sim::megabytes(1), cache);
  PageId p = pg(1);
  for (int i = 1; i <= 5; ++i) vm.create_version(p, 0, static_cast<Timestamp>(i * 10), 128);
  sim::Bytes freed = vm.gc(100, 128);
  EXPECT_GT(freed, 0);
  // The newest version must survive.
  EXPECT_EQ(vm.current_version(p, 0), 50u);
}

// ---------------------------------------------------------------------------

TEST(LogManager, FlushWritesToDisk) {
  sim::Engine e;
  storage::Disk disk(e, "log", storage::DiskParams{});
  LogManager lm(e, &disk);
  lm.append(4096);
  bool flushed = false;
  sim::spawn([](LogManager& lm, bool& ok) -> sim::Task<void> {
    co_await lm.flush();
    ok = true;
  }(lm, flushed));
  e.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(disk.ops_completed(), 1u);
  EXPECT_EQ(lm.bytes_logged(), 4096);
}

TEST(LogManager, GroupCommitCoalescesConcurrentFlushes) {
  sim::Engine e;
  storage::Disk disk(e, "log", storage::DiskParams{});
  LogManager lm(e, &disk);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    lm.append(512);
    sim::spawn([](LogManager& lm, int& done) -> sim::Task<void> {
      co_await lm.flush();
      ++done;
    }(lm, done));
  }
  e.run();
  EXPECT_EQ(done, 10);
  // Far fewer physical writes than flush() calls.
  EXPECT_LE(disk.ops_completed(), 3u);
  EXPECT_EQ(lm.bytes_logged(), 5120);
}

TEST(LogManager, FlushWithNothingPendingReturnsImmediately) {
  sim::Engine e;
  storage::Disk disk(e, "log", storage::DiskParams{});
  LogManager lm(e, &disk);
  bool done = false;
  sim::spawn([](LogManager& lm, bool& ok) -> sim::Task<void> {
    co_await lm.flush();
    ok = true;
  }(lm, done));
  EXPECT_TRUE(done);  // no events needed
  EXPECT_EQ(disk.ops_completed(), 0u);
}

TEST(LogManager, RemoteFlushDelegates) {
  sim::Engine e;
  LogManager lm(e, nullptr);
  sim::Bytes remote_bytes = 0;
  lm.set_remote_flush([&](sim::Bytes n) -> sim::Task<void> {
    remote_bytes += n;
    co_return;
  });
  lm.append(2048);
  bool done = false;
  sim::spawn([](LogManager& lm, bool& ok) -> sim::Task<void> {
    co_await lm.flush();
    ok = true;
  }(lm, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(remote_bytes, 2048);
}

}  // namespace
}  // namespace dclue::db
