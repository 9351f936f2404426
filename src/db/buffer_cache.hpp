#pragma once

/// \file buffer_cache.hpp
/// Per-node buffer cache. The database content lives once in memory (see
/// tpcc_schema.hpp); what the cache tracks is *residency and coherence
/// state* of pages at each node — exactly DCLUE's approach ("since the
/// entire database is sitting in the main memory, buffer cache operations
/// merely change status of the pages in question"). Hit ratios are an
/// output of this machinery, never an input.
///
/// Layout (see DESIGN.md §"DB-tier internals"): entries live in one
/// contiguous slab threaded by two intrusive index lists — the resident
/// recency list (front = coldest) and its unpinned sublist, kept in the same
/// relative order. Eviction pops the unpinned head in O(1) instead of
/// rescanning pinned-cold pages at the recency front; `lru_evict_scans`
/// counts entries examined per eviction (always 1 now) so a regression back
/// to scanning shows up in the registry. The unpinned sublist only starts
/// being maintained at the first pin() ever (built once from the recency
/// order, then kept incrementally): until then it is the recency list by
/// definition, and touch — the per-access hot path — updates a single list.
/// The page→slab index map is an open-addressing sim::FlatMap, so touch /
/// insert-hit is one probe and a few index writes, no allocation.
///
/// Nothing here is sized from the capacity: the map and the slab grow with
/// residency, and the capacity is only the eviction bound. A node's cache
/// bound is a fraction of the whole database, but at affinity 1.0 the node
/// holds about its own partition, so reserving for the bound would give
/// every node an index for the whole database.

#include <cstdint>
#include <vector>

#include "db/table.hpp"
#include "sim/flat_map.hpp"
#include "sim/obs/stats.hpp"
#include "sim/small_vec.hpp"

namespace dclue::db {

/// Coherence state of a locally cached page (MESI-like but directory-based;
/// exclusive = this node may produce new versions of the page's rows).
enum class PageMode : std::uint8_t { kShared = 0, kExclusive = 1 };

class BufferCache {
 public:
  /// Pages evicted by one insert; sized for the common single eviction.
  using EvictedList = sim::SmallVec<PageId, 4>;

  /// \p capacity_pages bounds residency (LRU eviction beyond it); it
  /// reserves nothing. The index grows as pages become resident.
  explicit BufferCache(std::size_t capacity_pages) : capacity_(capacity_pages) {}

  /// Is \p page resident with at least \p mode?
  [[nodiscard]] bool contains(PageId page, PageMode mode) const {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    return mode == PageMode::kShared ||
           slab_[it->value].mode == PageMode::kExclusive;
  }
  [[nodiscard]] bool resident(PageId page) const { return map_.contains(page); }

  /// Record a fetched page; LRU-evicts to make room. Evicted (unpinned)
  /// pages are returned so the coherence layer can notify their directory.
  EvictedList insert(PageId page, PageMode mode);

  /// Promote a resident page to exclusive (after coherence permission).
  void upgrade(PageId page) {
    auto it = map_.find(page);
    if (it != map_.end()) slab_[it->value].mode = PageMode::kExclusive;
  }

  /// Invalidate (remote node took exclusive ownership).
  bool invalidate(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return false;
    drop_entry(it->value);
    map_.erase_compact(it);
    return true;
  }

  /// Invalidate every resident page matching \p pred (crash cleanup: drop
  /// pages whose directory home died — the restarted directory is empty, so
  /// stale residency must not outlive it). Returns pages dropped.
  template <typename Pred>
  std::size_t invalidate_if(Pred pred) {
    std::size_t dropped = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->key)) {
        drop_entry(it->value);
        it = map_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  /// Mark recently used.
  void touch(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return;
    const std::uint32_t idx = it->value;
    lru_.move_to_tail(slab_, idx);
    if (split_ && slab_[idx].pins == 0) unpinned_.move_to_tail(slab_, idx);
  }

  void pin(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) return;
    if (!split_) activate_split();
    Entry& e = slab_[it->value];
    if (e.pins++ == 0) unpinned_.unlink(slab_, it->value);
  }
  void unpin(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end() || slab_[it->value].pins == 0) return;
    const std::uint32_t idx = it->value;
    if (--slab_[idx].pins > 0) return;
    // Re-enter the unpinned list at the position the recency order dictates:
    // before the first unpinned page that is younger in the main list (cold
    // path — the model never pins, only tests and future holders do).
    std::uint32_t after = slab_[idx].next;
    while (after != kNil && slab_[after].pins != 0) after = slab_[after].next;
    unpinned_.link_before(slab_, idx, after);
  }

  /// Give up \p n unpinned pages to the version overflow area (the paper:
  /// "unpinned pages from the buffer cache are stolen to replenish it").
  /// Returns the stolen pages; capacity shrinks accordingly.
  EvictedList steal_for_versions(std::size_t n);

  /// Return previously stolen capacity (version GC freed space).
  void restore_capacity(std::size_t n) { capacity_ += n; }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Entries examined across all evictions (the `db.lru_evict_scans` probe:
  /// with the unpinned list this advances by exactly 1 per eviction, pinned
  /// front or not).
  [[nodiscard]] obs::Counter& evict_scans() { return evict_scans_; }
  /// Hash-table diagnostic behind `db.probe_len`. It moves with the index's
  /// sizing (a sparser table probes shorter), so it is not a model quantity.
  [[nodiscard]] const sim::ProbeStats& probe_stats() const {
    return map_.probe_stats();
  }
  /// Slots in the page index (tests): follows residency, not capacity().
  [[nodiscard]] std::size_t index_slots() const { return map_.capacity(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    PageId page = 0;
    std::uint32_t prev = kNil, next = kNil;    ///< resident recency list
    std::uint32_t uprev = kNil, unext = kNil;  ///< unpinned sublist
    std::uint32_t pins = 0;
    std::uint32_t map_idx = 0;  ///< this page's slot in map_ (re-derived per rehash)
    PageMode mode = PageMode::kShared;
  };

  /// One intrusive doubly-linked index list through the slab; parameterised
  /// on which pair of link fields it threads.
  template <std::uint32_t Entry::* Prev, std::uint32_t Entry::* Next>
  struct List {
    std::uint32_t head = kNil, tail = kNil;

    void push_tail(std::vector<Entry>& slab, std::uint32_t idx) {
      slab[idx].*Prev = tail;
      slab[idx].*Next = kNil;
      if (tail == kNil) {
        head = idx;
      } else {
        slab[tail].*Next = idx;
      }
      tail = idx;
    }
    void unlink(std::vector<Entry>& slab, std::uint32_t idx) {
      Entry& e = slab[idx];
      if (e.*Prev == kNil) {
        head = e.*Next;
      } else {
        slab[e.*Prev].*Next = e.*Next;
      }
      if (e.*Next == kNil) {
        tail = e.*Prev;
      } else {
        slab[e.*Next].*Prev = e.*Prev;
      }
      e.*Prev = kNil;
      e.*Next = kNil;
    }
    void move_to_tail(std::vector<Entry>& slab, std::uint32_t idx) {
      if (tail == idx) return;
      unlink(slab, idx);
      push_tail(slab, idx);
    }
    /// Insert \p idx before \p before (kNil appends at the tail).
    void link_before(std::vector<Entry>& slab, std::uint32_t idx,
                     std::uint32_t before) {
      if (before == kNil) {
        push_tail(slab, idx);
        return;
      }
      Entry& b = slab[before];
      slab[idx].*Prev = b.*Prev;
      slab[idx].*Next = before;
      if (b.*Prev == kNil) {
        head = idx;
      } else {
        slab[b.*Prev].*Next = idx;
      }
      b.*Prev = idx;
    }
  };

  /// Pop the least recently used unpinned page; returns 0 when none.
  PageId evict_one();

  /// Unlink \p idx from both lists and recycle the slab slot (the map entry
  /// is the caller's to erase).
  void drop_entry(std::uint32_t idx) {
    lru_.unlink(slab_, idx);
    if (split_ && slab_[idx].pins == 0) unpinned_.unlink(slab_, idx);
    free_.push_back(idx);
  }

  /// Rebuild every entry's stored map slot index after a map rehash. Every
  /// map value must already name its slab slot: a placeholder value would
  /// write its slot index into some other entry.
  void refresh_map_indices() {
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      slab_[it->value].map_idx = static_cast<std::uint32_t>(map_.index_of(it));
    }
  }

  /// First pin ever: from here on the unpinned sublist is maintained
  /// incrementally, seeded with the current recency order (nothing is pinned
  /// yet at this point, so every resident page joins).
  void activate_split() {
    split_ = true;
    for (std::uint32_t i = lru_.head; i != kNil; i = slab_[i].next) {
      unpinned_.push_tail(slab_, i);
    }
  }

  std::uint32_t alloc_entry(PageId page, PageMode mode) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      slab_[idx] = Entry{};
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    slab_[idx].page = page;
    slab_[idx].mode = mode;
    return idx;
  }

  std::size_t capacity_;
  sim::FlatMap<PageId, std::uint32_t> map_;  ///< page → slab index
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> free_;
  List<&Entry::prev, &Entry::next> lru_;        ///< head = coldest resident
  List<&Entry::uprev, &Entry::unext> unpinned_;  ///< same order, unpinned only
  bool split_ = false;  ///< unpinned_ maintained (first pin seen)
  obs::Counter evict_scans_;
};

inline BufferCache::EvictedList BufferCache::insert(PageId page, PageMode mode) {
  EvictedList evicted;
  const std::size_t rehashes0 = map_.rehashes();
  auto [it, inserted] = map_.try_emplace(page, kNil);
  // A new page gets its slab slot first: the refresh below reads every map
  // value, this one included.
  if (inserted) it->value = alloc_entry(page, mode);
  const std::uint32_t idx = it->value;
  // As the index grows, any try_emplace (a hit too) may rehash and leave
  // every stored slot index stale. Otherwise only the new page's slot needs
  // recording: erases never move slots, so eviction erases through it
  // without re-probing (see evict_one).
  if (map_.rehashes() != rehashes0) {
    refresh_map_indices();
  } else if (inserted) {
    slab_[idx].map_idx = static_cast<std::uint32_t>(map_.index_of(it));
  }
  if (!inserted) {
    // Resident: one probe covers the hit — upgrade in place and re-rank.
    if (mode == PageMode::kExclusive) slab_[idx].mode = PageMode::kExclusive;
    lru_.move_to_tail(slab_, idx);
    if (split_ && slab_[idx].pins == 0) unpinned_.move_to_tail(slab_, idx);
    return evicted;
  }
  while (map_.size() > capacity_) {
    PageId victim = evict_one();  // never the new page: it is list-linked below
    if (victim == 0) break;  // everything pinned; allow transient overcommit
    evicted.push_back(victim);
  }
  lru_.push_tail(slab_, idx);
  if (split_) unpinned_.push_tail(slab_, idx);
  return evicted;
}

inline PageId BufferCache::evict_one() {
  const std::uint32_t idx = split_ ? unpinned_.head : lru_.head;
  if (idx == kNil) return 0;
  evict_scans_.record();
  const PageId victim = slab_[idx].page;
  const std::uint32_t map_idx = slab_[idx].map_idx;
  drop_entry(idx);
  map_.erase_at(map_idx);  // no re-probe, no cold slot-line read
  return victim;
}

inline BufferCache::EvictedList BufferCache::steal_for_versions(std::size_t n) {
  EvictedList stolen;
  while (stolen.size() < n && capacity_ > 1) {
    PageId victim = evict_one();
    if (victim == 0) break;
    --capacity_;
    stolen.push_back(victim);
  }
  return stolen;
}

}  // namespace dclue::db
