// Ordered primary-key index: a deterministic, partitioned-by-construction
// skip list (one instance per table shard, like hash_index).
//
// Why a skip list and not a B-tree: nodes are immortal (erase tombstones
// the row id in place, nodes are freed only by the destructor) and links
// are single atomic pointers, so the lock-free reader story is the same
// release/acquire publication protocol the hash index already proved out —
// no node splits/merges to make safe against concurrent readers.
//
//  * Writers (insert/erase) serialize through one spinlock per index
//    instance — i.e. per table shard. The deterministic engines already
//    confine a key's writers to its home partition's executor, so this
//    lock is uncontended on their hot path; it exists for concurrent
//    loaders and the cross-partition baselines.
//  * Readers never need a lock. Lookups and range visits walk `next`
//    pointers with acquire loads; writers fully initialize a node's key,
//    row and forward pointers before release-linking it, and tombstone in
//    place, so a reader sees a fully published node or none at all.
//
// Determinism: tower heights derive from a bit-mixed hash of the key
// (geometric with branching factor 4), NOT from an RNG — two indexes
// holding the same key set have bit-identical structure regardless of
// insertion order. Level-0 is a sorted linked list, so every visit
// (`visit_live`, `visit_range`) yields ascending key order by
// construction: scan results, checkpoint images and state pinning can
// never observe hash order from this backend.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/spinlock.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "storage/index_backend.hpp"

namespace quecc::storage {

class ordered_index final : public index_backend {
 public:
  /// `expected` is accepted for interface symmetry with hash_index; a skip
  /// list needs no pre-sizing.
  explicit ordered_index(std::size_t expected);
  ~ordered_index() override;

  index_kind kind() const noexcept override { return index_kind::ordered; }

  row_id_t lookup(key_t key) const noexcept override;
  bool insert(key_t key, row_id_t row) override;
  bool erase(key_t key) override;

  std::size_t size() const noexcept override {
    return live_.load(std::memory_order_acquire);
  }

  void visit_live(visit_fn fn, void* ctx) const override;
  bool visit_range(key_t lo, key_t hi, visit_fn fn,
                   void* ctx) const override;

 private:
  /// Tallest tower; 16 levels at branching 4 cover ~4^16 keys, far beyond
  /// any shard's capacity.
  static constexpr int kMaxHeight = 16;

  struct node {
    explicit node(key_t k, row_id_t r, int h) : key(k), row(r), height(h) {
      // relaxed: the node is not yet reachable — it is published later by
      // the inserter's release store into a predecessor's next pointer.
      for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
    }
    const key_t key;
    std::atomic<row_id_t> row;
    const int height;
    std::atomic<node*> next[kMaxHeight];
  };

  /// Deterministic tower height for `key` (see header comment).
  static int height_for(key_t key) noexcept;

  /// First level-0 node with node->key >= key (nullptr past the end);
  /// acquire walk, safe without any lock.
  const node* find_ge(key_t key) const noexcept;

  /// Writer-path search: like find_ge but records the predecessor at every
  /// level for relinking.
  node* find_ge_with_preds(key_t key, node* preds[kMaxHeight]) noexcept
      REQUIRES(write_lock_);

  // Structural mutation (linking new nodes) is serialized by write_lock_;
  // the linked pointers themselves are atomics that lock-free readers walk
  // concurrently, so Clang TSA cannot express the split — the protocol
  // (writers hold the lock, readers need nothing, nodes are never freed
  // while live) is enforced by TSAN and documented above instead.
  common::spinlock write_lock_;
  node head_;
  std::atomic<std::size_t> live_{0};
};

}  // namespace quecc::storage
