#include "storage/table.hpp"

#include <cstring>
#include <stdexcept>

#include "common/topology.hpp"

namespace quecc::storage {

namespace {
std::vector<std::size_t> even_split(std::size_t capacity, part_id_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("table: shard count must be >= 1");
  }
  const std::size_t per = (capacity + shards - 1) / shards;
  return std::vector<std::size_t>(shards, per);
}
}  // namespace

table::table(table_id_t id, std::string name, schema s, std::size_t capacity,
             part_id_t shards)
    : table(id, std::move(name), std::move(s), even_split(capacity, shards)) {}

table::table(table_id_t id, std::string name, schema s,
             std::vector<std::size_t> shard_capacities)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(s)),
      row_size_(schema_.row_size()),
      capacity_(0) {
  if (shard_capacities.empty()) {
    throw std::invalid_argument("table '" + name_ + "': no shards");
  }
  shards_.reserve(shard_capacities.size());
  for (std::size_t cap : shard_capacities) {
    capacity_ += cap;
    shards_.push_back(std::make_unique<shard>(cap, row_size_, schema_.index()));
  }
}

std::size_t table::allocated_rows() const noexcept {
  std::size_t n = 0;
  for (part_id_t s = 0; s < shard_count(); ++s) n += allocated_rows_in(s);
  return n;
}

std::size_t table::live_rows() const noexcept {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh->index->size();
  return n;
}

row_id_t table::allocate_row(part_id_t part) {
  const part_id_t s = home_shard(part);
  shard& sh = *shards_[s];
  if (sh.free_count.load(std::memory_order_acquire) != 0) {
    common::spin_guard guard(sh.free_lock);
    if (!sh.free_slots.empty()) {
      const std::uint64_t slot = sh.free_slots.back();
      sh.free_slots.pop_back();
      sh.free_count.fetch_sub(1, std::memory_order_acq_rel);
      return make_rid(s, slot);
    }
  }
  const std::uint64_t slot =
      sh.next_row.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= sh.capacity) {
    throw std::length_error("table '" + name_ + "' shard " +
                            std::to_string(s) + " exceeded capacity " +
                            std::to_string(sh.capacity));
  }
  return make_rid(s, slot);
}

void table::retire_unindexed(row_id_t rid) {
  shard& sh = *shards_[rid_shard(rid)];
  // No key maps to the slot, so no other thread references it; reset the
  // bytes and protocol metadata a previous occupant may have left behind.
  std::memset(sh.slots.data() + rid_slot(rid) * row_size_, 0, row_size_);
  row_meta& m = sh.meta[rid_slot(rid)];
  // relaxed: unreferenced slot (no key maps to it); publication to the next
  // owner happens through the free_lock + free_count release below.
  m.word1.store(0, std::memory_order_relaxed);
  m.word2.store(0, std::memory_order_relaxed);
  common::spin_guard guard(sh.free_lock);
  sh.free_slots.push_back(rid_slot(rid));
  sh.free_count.fetch_add(1, std::memory_order_release);
}

row_id_t table::insert(key_t key, std::span<const std::byte> payload,
                       part_id_t part) {
  if (payload.size() > row_size_) {
    throw std::invalid_argument(
        "table '" + name_ + "': payload of " + std::to_string(payload.size()) +
        " bytes exceeds row size " + std::to_string(row_size_) +
        " (schema mismatch)");
  }
  const row_id_t rid = allocate_row(part);
  auto dst = row(rid);
  std::memset(dst.data(), 0, dst.size());
  std::memcpy(dst.data(), payload.data(), payload.size());
  if (!index_row(key, rid)) {
    retire_unindexed(rid);  // duplicate key: recycle, don't leak headroom
    return kNoRow;
  }
  return rid;
}

std::uint64_t table::state_hash() const {
  // FNV-1a per row over key + payload, combined with addition so that the
  // result is independent of index iteration order and shard layout.
  std::uint64_t acc = 0;
  for_each_live([&](key_t k, row_id_t rid) {
    std::uint64_t h = 1469598103934665603ull;
    auto absorb = [&h](const std::byte* p, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<std::uint64_t>(p[i]);
        h *= 1099511628211ull;
      }
    };
    absorb(reinterpret_cast<const std::byte*>(&k), sizeof k);
    const auto r = row(rid);
    absorb(r.data(), r.size());
    acc += h;
  });
  return acc;
}

bool table::bind_shard_to_node(part_id_t s, unsigned node) {
  shard& sh = *shards_[s];
  const bool slab_ok = common::bind_memory_to_node(
      sh.slots.data(), sh.capacity * row_size_, node);
  // Meta rides along (baseline protocols hammer it from the same
  // executor); its failure does not demote the slab's binding.
  if (!sh.meta.empty()) {
    common::bind_memory_to_node(sh.meta.data(),
                                sh.meta.size() * sizeof(row_meta), node);
  }
  const int actual = common::node_of_address(sh.slots.data());
  sh.numa_node = actual >= 0 ? actual : (slab_ok ? static_cast<int>(node) : -1);
  return slab_ok;
}

}  // namespace quecc::storage
