// Primary-key hash index: key -> row id.
//
// Buckets are chains of fixed-slot nodes published with release/acquire
// atomics, which splits the synchronization story in two:
//
//  * Writers (insert/erase) serialize through striped spinlocks — short
//    critical sections (CP.43); stripes keep unrelated keys apart. This is
//    the path concurrent loaders and the cross-partition baselines
//    (2PL/Silo/TicToc/MVTO) use.
//  * Readers never need a lock. `lookup` walks the node chain
//    with acquire loads; writers publish a new entry by storing the slot
//    first and release-incrementing the node's entry count (or
//    release-linking a fresh node), so a reader either sees a fully
//    written entry or none at all. Entries are never moved or deleted —
//    erase tombstones the row id in place (slot retired, reclaimed only by
//    a re-insert of the same key) — so a lock-free walk can never observe
//    a torn or recycled slot. So no lookup takes an index lock — the
//    deterministic engines' executor resolve is the paper's "no
//    per-record concurrency control on the execution path" made literal.
//
// Size guarantee: `size()` reads a single atomic counter maintained by
// insert/erase, so it is O(1), exact at quiescent points, and safe (a
// momentarily stale but torn-free value) while writers run — it never
// walks buckets concurrently mutated by insert, which the old
// implementation did.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/spinlock.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "storage/huge_pages.hpp"
#include "storage/index_backend.hpp"

namespace quecc::storage {

class hash_index final : public index_backend {
 public:
  /// `expected` sizes the bucket array (rounded up to a power of two).
  explicit hash_index(std::size_t expected);
  ~hash_index() override;

  index_kind kind() const noexcept override { return index_kind::hash; }

  /// Lock-free lookup (see header comment); returns kNoRow when absent
  /// (including tombstoned keys).
  row_id_t lookup(key_t key) const noexcept override;

  /// Prefetch the key's bucket head node: the lines lookup reads first.
  /// Overflow nodes are not followed (that would need the loads the hint
  /// is meant to hide).
  void prefetch(key_t key) const noexcept override;

  /// Insert; returns false when the key already exists (live). Re-inserting
  /// a tombstoned key reclaims its slot.
  bool insert(key_t key, row_id_t row) override;

  /// Remove; returns false when the key was absent. Tombstones in place.
  bool erase(key_t key) override;

  /// Live entries, O(1) from an atomic counter (see header comment).
  std::size_t size() const noexcept override {
    return live_.load(std::memory_order_acquire);
  }

  /// Virtual visit (index_backend): publication order per bucket chain —
  /// deterministic across indexes with the same insertion history, but
  /// NOT key order.
  void visit_live(visit_fn fn, void* ctx) const override {
    for (const auto& b : buckets_) {
      for (const node* n = &b.head; n != nullptr;
           n = n->next.load(std::memory_order_acquire)) {
        const std::uint32_t c = n->count.load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < c; ++i) {
          const row_id_t r = n->slots[i].row.load(std::memory_order_acquire);
          if (r != kNoRow && !fn(ctx, n->slots[i].key, r)) return;
        }
      }
    }
  }

  /// No ordered iteration in a hash table: reports unsupported.
  bool visit_range(key_t /*lo*/, key_t /*hi*/, visit_fn /*fn*/,
                   void* /*ctx*/) const override {
    return false;
  }

  /// Visit every live (key, row) pair; not concurrent with writers. Used
  /// by state hashing, checkpoints, and loaders only.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& b : buckets_) {
      for (const node* n = &b.head; n != nullptr;
           n = n->next.load(std::memory_order_acquire)) {
        const std::uint32_t c = n->count.load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < c; ++i) {
          const row_id_t r = n->slots[i].row.load(std::memory_order_acquire);
          if (r != kNoRow) fn(n->slots[i].key, r);
        }
      }
    }
  }

 private:
  /// Slots per chain node. The inline head node covers the common case
  /// (bucket array is sized to ~1 key per bucket); overflow nodes are
  /// allocated under the stripe lock and freed in the destructor.
  static constexpr std::uint32_t kNodeEntries = 4;

  struct entry {
    key_t key = 0;
    std::atomic<row_id_t> row{kNoRow};
  };
  struct node {
    std::atomic<std::uint32_t> count{0};
    std::atomic<node*> next{nullptr};
    entry slots[kNodeEntries];
  };
  struct bucket {
    node head;
  };

  static std::uint64_t mix(key_t key) noexcept;
  const bucket& bucket_for(key_t key) const noexcept;
  bucket& bucket_for(key_t key) noexcept;
  common::spinlock& lock_for(key_t key) noexcept;

  // The stripe array is indexed dynamically (lock_for(key)), which Clang
  // TSA cannot track as a capability expression; the discipline — writers
  // hold the key's stripe, readers need none (node chains publish via
  // release/acquire, entries are tombstoned in place, never freed) — is
  // enforced by TSAN and documented in the header comment instead.
  /// On huge pages (storage/huge_pages.hpp): lookups hit it at random.
  std::vector<bucket, huge_page_allocator<bucket>> buckets_;
  std::vector<common::spinlock> locks_;
  std::atomic<std::size_t> live_{0};
  std::uint64_t mask_ = 0;
  std::uint64_t lock_mask_ = 0;
};

}  // namespace quecc::storage
