// In-memory table: per-partition row arenas + primary-key index shards
// (pluggable backend, see storage/index_backend.hpp) + per-row protocol
// metadata.
//
// A table is split into `shard_count()` arenas, one per storage partition:
// each shard owns its own row slab, row-meta array, and index shard,
// so executors that the planner confined to disjoint partitions touch
// disjoint cache lines and disjoint index memory — the storage-level
// counterpart of the paradigm's "planning already decided who touches
// what". A future NUMA-aware placement pins shard s of every table on the
// node that `dist::placement::node_of_part(s)` names.
//
// Row ids carry their shard in the high 16 bits (`rid_shard`/`rid_slot`),
// so `row()`/`meta()` signatures, span lifetimes, and kNoRow sentinels are
// unchanged for callers. Capacity is preallocated per shard at
// construction so row spans stay valid for the table's lifetime —
// executors across threads hold spans concurrently and a reallocating
// slab would invalidate them. Loaders size shards from their per-partition
// key share (with headroom for benchmark inserts, e.g. TPC-C
// orders/order-lines).
//
// Locking: key operations take a `part` hint naming the home partition.
// `lookup` routes to the home shard and takes no index lock at all (see
// index_backend.hpp for why lock-free reads are safe). Writers
// (insert/erase) always serialize through the home shard's index.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/spinlock.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "storage/huge_pages.hpp"
#include "storage/index_backend.hpp"
#include "storage/schema.hpp"

namespace quecc::storage {

/// Per-row metadata words used by the *baseline* protocols; the
/// queue-oriented engine never touches them (its whole point is to need no
/// per-record concurrency control). Interpretation is protocol-specific:
///   2PL-NoWait : word1 = lock state (high bit exclusive, low bits shared)
///   Silo       : word1 = TID word (lock bit 63, epoch/counter below)
///   TicToc     : word1 = wts, word2 = rts
struct row_meta {
  std::atomic<std::uint64_t> word1{0};
  std::atomic<std::uint64_t> word2{0};
};

// --- row-id codec ----------------------------------------------------------
// High 16 bits: shard (home partition's arena). Low 48 bits: slot within
// the shard's slab. kNoRow (all ones) never collides: shard counts are
// bounded by part_id_t and slots by per-shard capacity, both far below the
// sentinel. Callers must keep checking `rid == kNoRow` before decoding.
inline constexpr unsigned kRidShardShift = 48;
inline constexpr row_id_t kRidSlotMask = (row_id_t{1} << kRidShardShift) - 1;

constexpr row_id_t make_rid(part_id_t shard, std::uint64_t slot) noexcept {
  return (static_cast<row_id_t>(shard) << kRidShardShift) | slot;
}
constexpr part_id_t rid_shard(row_id_t rid) noexcept {
  return static_cast<part_id_t>(rid >> kRidShardShift);
}
constexpr std::uint64_t rid_slot(row_id_t rid) noexcept {
  return rid & kRidSlotMask;
}

class table {
 public:
  /// `capacity` rows are preallocated, split evenly (rounded up) across
  /// `shards` arenas; exceeding a shard's share throws std::length_error
  /// from insert/allocate (tables are sized by the loader, growth would
  /// invalidate concurrently-held row spans).
  table(table_id_t id, std::string name, schema s, std::size_t capacity,
        part_id_t shards = 1);

  /// Explicit per-shard capacities, for loaders whose key share is uneven
  /// across partitions (e.g. TPC-C with warehouses % partitions != 0).
  table(table_id_t id, std::string name, schema s,
        std::vector<std::size_t> shard_capacities);

  table_id_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  const schema& layout() const noexcept { return schema_; }

  // --- shard geometry -----------------------------------------------------
  part_id_t shard_count() const noexcept {
    return static_cast<part_id_t>(shards_.size());
  }
  /// Arena backing home partition `part`. Single-shard tables (including
  /// replicated ones, loaded once and read-only after) collapse every
  /// partition onto shard 0; otherwise partitions stripe over shards.
  part_id_t home_shard(part_id_t part) const noexcept {
    return shards_.size() == 1
               ? 0
               : static_cast<part_id_t>(part % shards_.size());
  }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t shard_capacity(part_id_t s) const {
    return shards_[s]->capacity;
  }
  /// Entire slab of shard `s` (all capacity rows); snapshot substrate for
  /// the dual-version store.
  std::span<const std::byte> shard_slab(part_id_t s) const {
    const shard& sh = *shards_[s];
    return {sh.slots.data(), sh.capacity * row_size_};
  }

  /// Read-only tables replicated at every partition (TPC-C's ITEM):
  /// partitioned engines treat reads of them as partition-local, exactly
  /// like H-Store's replicated dimension tables. Such tables are loaded
  /// with a single shard that every partition's lookups route to.
  ///
  /// Contract: once loaded, no transaction writes a replicated table. The
  /// queue-oriented planner relies on it: it evaluates abortable reads of
  /// replicated tables while planning, which may overlap the previous
  /// batch's execution (core/planner.hpp). Change the flag only while no
  /// engine runs on the database.
  void set_replicated(bool r) noexcept { replicated_ = r; }
  bool replicated() const noexcept { return replicated_; }

  /// Slots currently in use (live + erase-retired); recycled slots
  /// (duplicate-key insert failures, rolled-back inserts) are not counted,
  /// so this tracks live_rows() instead of drifting away from it under
  /// duplicate storms or abort-heavy speculation.
  std::size_t allocated_rows() const noexcept;
  std::size_t allocated_rows_in(part_id_t s) const noexcept {
    const shard& sh = *shards_[s];
    // Load free_count first: every counted free slot corresponds to an
    // earlier allocation, so this order keeps the difference non-negative
    // even while writers churn (the reverse order could transiently
    // observe more frees than allocations and wrap).
    const std::uint64_t freed =
        sh.free_count.load(std::memory_order_acquire);
    return sh.next_row.load(std::memory_order_acquire) - freed;
  }
  /// Slots ever handed out in shard `s` (allocation high-water mark); the
  /// bound a snapshot of the slab must cover.
  std::size_t high_water_in(part_id_t s) const noexcept {
    return shards_[s]->next_row.load(std::memory_order_acquire);
  }

  // --- row access ---------------------------------------------------------
  std::span<std::byte> row(row_id_t rid) noexcept {
    shard& sh = *shards_[rid_shard(rid)];
    return {sh.slots.data() + rid_slot(rid) * row_size_, row_size_};
  }
  std::span<const std::byte> row(row_id_t rid) const noexcept {
    const shard& sh = *shards_[rid_shard(rid)];
    return {sh.slots.data() + rid_slot(rid) * row_size_, row_size_};
  }
  row_meta& meta(row_id_t rid) noexcept {
    return shards_[rid_shard(rid)]->meta[rid_slot(rid)];
  }

  // --- key operations -----------------------------------------------------
  // The `part` hint names the key's home partition; it defaults to 0 so
  // single-shard tables (ad-hoc tests, replicated tables) keep the old
  // one-argument calls. CAUTION: on a multi-shard table the default is
  // NOT "search everywhere" — a one-argument lookup/erase only sees shard
  // 0 and silently misses keys homed elsewhere. Callers touching sharded
  // tables must pass the fragment's `part` (or `rid_shard(rid)` on
  // rollback paths).

  /// Backend implementing the primary-key index of every shard (recorded
  /// in the schema; see storage/index_backend.hpp).
  index_kind index() const noexcept { return schema_.index(); }

  /// Lookup in `part`'s home shard. Lock-free: safe against concurrent
  /// writers (see index_backend.hpp).
  row_id_t lookup(key_t key, part_id_t part = 0) const noexcept {
    return shards_[home_shard(part)]->index->lookup(key);
  }

  /// Prefetch the index memory a lookup of `key` in `part`'s home shard
  /// reads first (index_backend::prefetch; a no-op on ordered tables).
  void prefetch_key(key_t key, part_id_t part = 0) const noexcept {
    shards_[home_shard(part)]->index->prefetch(key);
  }

  /// Allocate a fresh slot in `part`'s home shard (concurrent-safe)
  /// without indexing it yet.
  row_id_t allocate_row(part_id_t part = 0);

  /// Return a slot no key maps to — a duplicate-key insert failure, or a
  /// rolled-back insert whose key was already unlinked — to its shard's
  /// free list, zeroing its bytes and protocol metadata. Zeroed bytes keep
  /// a rolled-back row out of the read-committed image: the commit
  /// epilogue publishes the slot's (now blank) bytes, exactly what a slot
  /// that was never used holds. Only valid for slots no other thread can
  /// reference.
  void retire_unindexed(row_id_t rid);

  /// Allocate + copy payload + index into `part`'s home shard. Returns
  /// kNoRow on duplicate key (the slot is recycled, not leaked). Throws
  /// std::invalid_argument when the payload is wider than a row — a schema
  /// mismatch must fail loudly, not silently truncate into a corrupt row.
  row_id_t insert(key_t key, std::span<const std::byte> payload,
                  part_id_t part = 0);

  /// Index a previously allocated row under `key` (shard taken from the
  /// rid, which allocate_row encoded).
  bool index_row(key_t key, row_id_t rid) {
    return shards_[rid_shard(rid)]->index->insert(key, rid);
  }

  /// Unlink a key from `part`'s home shard (slot is retired, not reused;
  /// rollback of an insert follows up with retire_unindexed). Returns false
  /// if absent. Rollback paths without a partition at hand pass
  /// `rid_shard(rid)` of the row they are unlinking.
  bool erase(key_t key, part_id_t part = 0) {
    return shards_[home_shard(part)]->index->erase(key);
  }

  std::size_t live_rows() const noexcept;
  std::size_t live_rows_in(part_id_t s) const noexcept {
    return shards_[s]->index->size();
  }

  /// Visit all live (key, row id) pairs, shard-major. Not safe
  /// concurrently with writes. Within a shard the order is the backend's
  /// visit contract (see for_each_live_in).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (part_id_t s = 0; s < shard_count(); ++s) {
      for_each_live_in(s, fn);
    }
  }

  /// Visit shard `s`'s live pairs only (checkpointing, clone).
  ///
  /// ITERATION ORDER IS A CONTRACT — checkpoint writers serialize rows in
  /// this order and restore replays the file order, so rid assignment
  /// after recovery depends on it (PR 7 pinned the restore side; the take
  /// side is pinned by tests/test_scan.cpp):
  ///  * hash backend    — bucket-chain publication order: identical for
  ///    two indexes with the same insertion history, unrelated to keys;
  ///  * ordered backend — ascending key order, always.
  template <typename Fn>
  void for_each_live_in(part_id_t s, Fn&& fn) const {
    using fn_t = std::remove_reference_t<Fn>;
    shards_[s]->index->visit_live(
        [](void* ctx, key_t k, row_id_t rid) {
          (*static_cast<fn_t*>(ctx))(k, rid);
          return true;
        },
        &fn);
  }

  /// Range scan over `part`'s home shard: visit live pairs with
  /// lo <= key < hi in ascending key order, lock-free against concurrent
  /// writers. Returns false when the table's index backend has no ordered
  /// iteration (hash) — scan fragments then see an empty result; workloads
  /// that plan scans must create their tables with index_kind::ordered.
  bool visit_range_in(part_id_t part, key_t lo, key_t hi,
                      index_backend::visit_fn fn, void* ctx) const {
    return shards_[home_shard(part)]->index->visit_range(lo, hi, fn, ctx);
  }

  /// Order-independent hash over live (key, payload) pairs; equal table
  /// contents hash equal regardless of insertion order *and* of shard
  /// count (rids and shard layout never enter the hash). Tests use this to
  /// compare engines and recovery paths.
  std::uint64_t state_hash() const;

  // --- NUMA placement -----------------------------------------------------
  /// Best-effort bind of shard `s`'s row slab + meta pages to NUMA `node`
  /// (raw mbind with page migration — slabs are zero-filled at allocation,
  /// so their pages already faulted on the loader's node; see
  /// common/topology.hpp). Records the node actually backing the slab
  /// afterwards, queryable via shard_numa_node(). Returns true when the
  /// kernel accepted the move; false (and no behavior change) on
  /// single-node machines or unsupported platforms.
  bool bind_shard_to_node(part_id_t s, unsigned node);

  /// NUMA node backing shard `s`'s slab as recorded by the last
  /// bind_shard_to_node call (-1 = never bound / unknown).
  int shard_numa_node(part_id_t s) const noexcept {
    return shards_[s]->numa_node;
  }

 private:
  /// One partition's arena: row slab + meta + index shard + allocator.
  struct shard {
    shard(std::size_t cap, std::size_t row_size, index_kind k)
        : slots(row_size * cap),
          meta(cap),
          index(make_index(k, cap)),
          capacity(cap) {}
    /// Row slab, zero-filled; on huge pages (storage/huge_pages.hpp).
    std::vector<std::byte, huge_page_allocator<std::byte>> slots;
    std::vector<row_meta> meta;
    std::unique_ptr<index_backend> index;
    std::atomic<std::uint64_t> next_row{0};
    common::spinlock free_lock;
    /// Recycled slot numbers. free_count is the lock-free "is it worth
    /// taking free_lock" hint: writers release-increment it after pushing
    /// under the lock, allocate_row acquire-loads it before locking.
    std::vector<std::uint64_t> free_slots GUARDED_BY(free_lock);
    std::atomic<std::uint32_t> free_count{0};
    std::size_t capacity;
    /// NUMA node backing the slab (-1 until bind_shard_to_node ran).
    /// Written once at placement time, before workers start.
    int numa_node = -1;
  };

  table_id_t id_;
  std::string name_;
  schema schema_;
  std::size_t row_size_;
  std::size_t capacity_;
  bool replicated_ = false;
  std::vector<std::unique_ptr<shard>> shards_;
};

}  // namespace quecc::storage
