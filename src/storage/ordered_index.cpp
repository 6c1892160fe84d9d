#include "storage/ordered_index.hpp"

#include "storage/hash_index.hpp"

namespace quecc::storage {

namespace {
/// Same murmur-style finalizer as hash_index::mix; heights must not
/// correlate with raw key order (dense sequential keys would otherwise
/// degenerate the tower distribution).
std::uint64_t mix(key_t key) noexcept {
  std::uint64_t h = key;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}
}  // namespace

ordered_index::ordered_index(std::size_t /*expected*/)
    : head_(0, kNoRow, kMaxHeight) {}

ordered_index::~ordered_index() {
  // relaxed: destructor runs single-threaded (no concurrent publishers).
  node* n = head_.next[0].load(std::memory_order_relaxed);
  while (n != nullptr) {
    node* next = n->next[0].load(std::memory_order_relaxed);
    delete n;
    n = next;
  }
}

int ordered_index::height_for(key_t key) noexcept {
  // Geometric distribution with branching factor 4, read off the mixed
  // key's bit pairs: height h with probability 4^-(h-1) * 3/4. Purely a
  // function of the key — see the determinism note in the header.
  std::uint64_t h = mix(key);
  int height = 1;
  while (height < kMaxHeight && (h & 3) == 0) {
    ++height;
    h >>= 2;
  }
  return height;
}

const ordered_index::node* ordered_index::find_ge(key_t key) const noexcept {
  const node* x = &head_;
  for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
    for (const node* nxt = x->next[lvl].load(std::memory_order_acquire);
         nxt != nullptr && nxt->key < key;
         nxt = x->next[lvl].load(std::memory_order_acquire)) {
      x = nxt;
    }
  }
  return x->next[0].load(std::memory_order_acquire);
}

ordered_index::node* ordered_index::find_ge_with_preds(
    key_t key, node* preds[kMaxHeight]) noexcept {
  node* x = &head_;
  for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
    // relaxed: traversal under write_lock_ — writers are mutually
    // excluded, and every pointer read here was written either before the
    // lock was acquired or by this thread.
    for (node* nxt = x->next[lvl].load(std::memory_order_relaxed);
         nxt != nullptr && nxt->key < key;
         nxt = x->next[lvl].load(std::memory_order_relaxed)) {
      x = nxt;
    }
    preds[lvl] = x;
  }
  // relaxed: same write_lock_-holder-only traversal as the loop above.
  return x->next[0].load(std::memory_order_relaxed);
}

row_id_t ordered_index::lookup(key_t key) const noexcept {
  const node* n = find_ge(key);
  if (n == nullptr || n->key != key) return kNoRow;
  return n->row.load(std::memory_order_acquire);
}

bool ordered_index::insert(key_t key, row_id_t row) {
  common::spin_guard guard(write_lock_);
  node* preds[kMaxHeight];
  node* n = find_ge_with_preds(key, preds);
  if (n != nullptr && n->key == key) {
    // relaxed: row flips only under write_lock_.
    if (n->row.load(std::memory_order_relaxed) != kNoRow) {
      return false;  // live duplicate
    }
    // Tombstone reclaim: lock-free readers observe the flip atomically.
    n->row.store(row, std::memory_order_release);
    live_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }
  node* fresh = new node(key, row, height_for(key));
  for (int lvl = 0; lvl < fresh->height; ++lvl) {
    // relaxed: the release stores linking `fresh` below publish the whole
    // node, forward pointers included.
    fresh->next[lvl].store(preds[lvl]->next[lvl].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }
  for (int lvl = 0; lvl < fresh->height; ++lvl) {
    preds[lvl]->next[lvl].store(fresh, std::memory_order_release);
  }
  live_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool ordered_index::erase(key_t key) {
  common::spin_guard guard(write_lock_);
  node* preds[kMaxHeight];
  node* n = find_ge_with_preds(key, preds);
  if (n == nullptr || n->key != key) return false;
  // relaxed: row flips only under write_lock_.
  if (n->row.load(std::memory_order_relaxed) == kNoRow) {
    return false;  // already tombstoned
  }
  n->row.store(kNoRow, std::memory_order_release);
  live_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

void ordered_index::visit_live(visit_fn fn, void* ctx) const {
  for (const node* n = head_.next[0].load(std::memory_order_acquire);
       n != nullptr; n = n->next[0].load(std::memory_order_acquire)) {
    const row_id_t r = n->row.load(std::memory_order_acquire);
    if (r != kNoRow && !fn(ctx, n->key, r)) return;
  }
}

bool ordered_index::visit_range(key_t lo, key_t hi, visit_fn fn,
                                void* ctx) const {
  for (const node* n = find_ge(lo);
       n != nullptr && n->key < hi;
       n = n->next[0].load(std::memory_order_acquire)) {
    const row_id_t r = n->row.load(std::memory_order_acquire);
    if (r != kNoRow && !fn(ctx, n->key, r)) break;
  }
  return true;
}

std::unique_ptr<index_backend> make_index(index_kind k, std::size_t expected) {
  if (k == index_kind::ordered) {
    return std::make_unique<ordered_index>(expected);
  }
  return std::make_unique<hash_index>(expected);
}

}  // namespace quecc::storage
