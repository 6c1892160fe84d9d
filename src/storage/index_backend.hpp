// Primary-key index backend seam: key -> row id, pluggable per table.
//
// `storage::table` owns one index instance per shard (arena) and talks to
// it only through this interface, so the access path is swappable without
// touching any caller above the storage layer — the LeanStore-style
// Adapter/Scanner idea applied to our per-arena layout. Two backends ship:
//
//  * `hash_index`    — the original chained hash (point lookups only);
//  * `ordered_index` — a deterministic skip list that additionally supports
//    in-order range visits (`visit_range`), unlocking scan fragments.
//
// Both obey the same concurrency contract every engine relies on: `lookup`
// and the visit functions are lock-free and safe against concurrent
// writers (entries are published with release/acquire
// and tombstoned in place, never unlinked or freed while the index lives),
// while insert/erase serialize writers internally. The backend is chosen
// per table via `schema::with_index` and recorded in the catalog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace quecc::storage {

using row_id_t = std::uint64_t;
inline constexpr row_id_t kNoRow = ~0ull;

/// Which index implementation backs a table's shards.
enum class index_kind : std::uint8_t { hash = 0, ordered = 1 };

constexpr const char* index_kind_name(index_kind k) noexcept {
  return k == index_kind::ordered ? "ordered" : "hash";
}

class index_backend {
 public:
  /// Visitor over live (key, row id) pairs; return false to stop early.
  /// A plain function pointer + context (not std::function) keeps the
  /// virtual seam allocation-free on the execution hot path.
  using visit_fn = bool (*)(void* ctx, key_t key, row_id_t row);

  virtual ~index_backend() = default;
  index_backend() = default;
  index_backend(const index_backend&) = delete;
  index_backend& operator=(const index_backend&) = delete;

  virtual index_kind kind() const noexcept = 0;

  /// Point lookup; returns kNoRow when absent (including tombstoned keys).
  /// Lock-free: safe concurrently with writers, takes no lock of any kind.
  virtual row_id_t lookup(key_t key) const noexcept = 0;

  /// Hint that `lookup(key)` (or insert/erase of `key`) comes soon: pull
  /// the memory it will read first into the cache. Only a hint — it reads
  /// no entry, returns nothing and changes no state, and the lookup that
  /// follows must still be made. A backend whose first access depends on
  /// a chain of loads (the ordered skip list) keeps this no-op: the walk
  /// itself is the cost, and only the hash backend can name its bucket
  /// from the key alone.
  virtual void prefetch(key_t /*key*/) const noexcept {}

  /// Insert; returns false when the key already exists (live). Re-inserting
  /// a tombstoned key reclaims its slot.
  virtual bool insert(key_t key, row_id_t row) = 0;

  /// Remove; returns false when the key was absent. Tombstones in place.
  virtual bool erase(key_t key) = 0;

  /// Live entries, O(1) from an atomic counter.
  virtual std::size_t size() const noexcept = 0;

  /// Visit every live (key, row) pair. Iteration order is a backend
  /// contract (checkpoint writers and state pinning depend on it):
  /// hash — publication order per bucket chain, identical across two
  /// indexes with the same insertion history; ordered — ascending key
  /// order, always.
  virtual void visit_live(visit_fn fn, void* ctx) const = 0;

  /// Visit live pairs with lo <= key < hi in ascending key order, lock-free
  /// against concurrent writers. Returns false when the backend has no
  /// ordered iteration (hash) — the caller decides whether that is an
  /// empty result or a configuration error.
  virtual bool visit_range(key_t lo, key_t hi, visit_fn fn,
                           void* ctx) const = 0;
};

/// Backend factory; `expected` sizes internal structures for ~that many
/// live keys.
std::unique_ptr<index_backend> make_index(index_kind k, std::size_t expected);

}  // namespace quecc::storage
