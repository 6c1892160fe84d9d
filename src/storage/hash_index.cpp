#include "storage/hash_index.hpp"

#include <bit>

#include "storage/prefetch.hpp"

namespace quecc::storage {

namespace {
std::size_t round_pow2(std::size_t n) {
  return std::bit_ceil(n < 16 ? std::size_t{16} : n);
}
}  // namespace

hash_index::hash_index(std::size_t expected)
    : buckets_(round_pow2(expected)),
      locks_(std::min<std::size_t>(round_pow2(expected / 64 + 1), 4096)) {
  mask_ = buckets_.size() - 1;
  lock_mask_ = locks_.size() - 1;
}

hash_index::~hash_index() {
  // relaxed: destructor runs single-threaded (no concurrent publishers).
  for (auto& b : buckets_) {
    node* n = b.head.next.load(std::memory_order_relaxed);
    while (n != nullptr) {
      node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }
}

std::uint64_t hash_index::mix(key_t key) noexcept {
  // Fibonacci/murmur-style finalizer; cheap and well distributed.
  std::uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

const hash_index::bucket& hash_index::bucket_for(key_t key) const noexcept {
  return buckets_[mix(key) & mask_];
}

hash_index::bucket& hash_index::bucket_for(key_t key) noexcept {
  return buckets_[mix(key) & mask_];
}

common::spinlock& hash_index::lock_for(key_t key) noexcept {
  return locks_[mix(key) & lock_mask_];
}

row_id_t hash_index::lookup(key_t key) const noexcept {
  for (const node* n = &bucket_for(key).head; n != nullptr;
       n = n->next.load(std::memory_order_acquire)) {
    const std::uint32_t c = n->count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < c; ++i) {
      if (n->slots[i].key == key) {
        return n->slots[i].row.load(std::memory_order_acquire);
      }
    }
  }
  return kNoRow;
}

void hash_index::prefetch(key_t key) const noexcept {
  prefetch_object(bucket_for(key).head);
}

bool hash_index::insert(key_t key, row_id_t row) {
  common::spin_guard guard(lock_for(key));
  node* last = &bucket_for(key).head;
  // relaxed: chain traversal under the stripe lock — writers are mutually
  // excluded, so no publication edge is needed on this path's loads.
  for (node* n = last; n != nullptr;
       n = n->next.load(std::memory_order_relaxed)) {
    const std::uint32_t c = n->count.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < c; ++i) {
      if (n->slots[i].key == key) {
        // relaxed: row flips only under this stripe lock.
        if (n->slots[i].row.load(std::memory_order_relaxed) != kNoRow) {
          return false;  // live duplicate
        }
        // Tombstone reclaim: lock-free readers observe the flip atomically.
        n->slots[i].row.store(row, std::memory_order_release);
        live_.fetch_add(1, std::memory_order_acq_rel);
        return true;
      }
    }
    last = n;
  }
  // relaxed: count only advances under this stripe lock.
  const std::uint32_t c = last->count.load(std::memory_order_relaxed);
  if (c < kNodeEntries) {
    // Write the slot fully, then publish it via the count: a concurrent
    // lock-free reader acquiring the count sees a complete entry.
    last->slots[c].key = key;
    // relaxed: the release store of count below publishes the whole slot.
    last->slots[c].row.store(row, std::memory_order_relaxed);
    last->count.store(c + 1, std::memory_order_release);
  } else {
    node* fresh = new node;
    fresh->slots[0].key = key;
    // relaxed: the release store of next below publishes the whole node.
    fresh->slots[0].row.store(row, std::memory_order_relaxed);
    fresh->count.store(1, std::memory_order_relaxed);
    last->next.store(fresh, std::memory_order_release);  // publish the node
  }
  live_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool hash_index::erase(key_t key) {
  common::spin_guard guard(lock_for(key));
  // relaxed: chain traversal under the stripe lock (see insert).
  for (node* n = &bucket_for(key).head; n != nullptr;
       n = n->next.load(std::memory_order_relaxed)) {
    const std::uint32_t c = n->count.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < c; ++i) {
      if (n->slots[i].key == key) {
        // relaxed: row flips only under this stripe lock.
        if (n->slots[i].row.load(std::memory_order_relaxed) == kNoRow) {
          return false;  // already tombstoned
        }
        n->slots[i].row.store(kNoRow, std::memory_order_release);
        live_.fetch_sub(1, std::memory_order_acq_rel);
        return true;
      }
    }
  }
  return false;
}

}  // namespace quecc::storage
