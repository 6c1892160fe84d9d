// Unit tests: storage substrate (schema, index, table, database, versions).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "storage/database.hpp"
#include "storage/dual_version.hpp"
#include "storage/hash_index.hpp"
#include "storage/huge_pages.hpp"
#include "storage/schema.hpp"

namespace quecc::storage {
namespace {

schema two_col_schema() {
  return schema({{"A", col_type::u64, 8}, {"B", col_type::bytes, 12}});
}

TEST(Schema, OffsetsAndRowSize) {
  const auto s = two_col_schema();
  EXPECT_EQ(s.row_size(), 20u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.index_of("B"), 1u);
  EXPECT_THROW(s.index_of("C"), std::out_of_range);
}

TEST(Schema, NumericAccessorsRoundTrip) {
  std::vector<std::byte> buf(32);
  std::span<std::byte> row(buf);
  write_u64(row, 0, 0xdeadbeefull);
  write_i64(row, 8, -42);
  write_f64(row, 16, 3.25);
  EXPECT_EQ(read_u64(row, 0), 0xdeadbeefull);
  EXPECT_EQ(read_i64(row, 8), -42);
  EXPECT_DOUBLE_EQ(read_f64(row, 16), 3.25);
}

TEST(Schema, EmptySchemaRejected) {
  EXPECT_THROW(schema(std::vector<column>{}), std::invalid_argument);
}

TEST(HashIndex, InsertLookupErase) {
  hash_index idx(64);
  EXPECT_TRUE(idx.insert(5, 50));
  EXPECT_FALSE(idx.insert(5, 51));  // duplicate
  EXPECT_EQ(idx.lookup(5), 50u);
  EXPECT_EQ(idx.lookup(6), kNoRow);
  EXPECT_TRUE(idx.erase(5));
  EXPECT_FALSE(idx.erase(5));
  EXPECT_EQ(idx.lookup(5), kNoRow);
}

TEST(HashIndex, ManyKeys) {
  hash_index idx(1000);
  for (key_t k = 0; k < 5000; ++k) ASSERT_TRUE(idx.insert(k * 7, k));
  EXPECT_EQ(idx.size(), 5000u);
  for (key_t k = 0; k < 5000; ++k) ASSERT_EQ(idx.lookup(k * 7), k);
}

TEST(HashIndex, ConcurrentInsertsDisjointKeys) {
  hash_index idx(1 << 14);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&idx, t] {
      for (key_t k = 0; k < 4000; ++k) idx.insert(k * 4 + t, k);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(idx.size(), 16000u);
}

TEST(Table, InsertAndRead) {
  table t(0, "t", two_col_schema(), 128);
  std::vector<std::byte> payload(20);
  std::span<std::byte> p(payload);
  write_u64(p, 0, 99);
  const auto rid = t.insert(7, payload);
  ASSERT_NE(rid, kNoRow);
  EXPECT_EQ(t.lookup(7), rid);
  EXPECT_EQ(read_u64(t.row(rid), 0), 99u);
  EXPECT_EQ(t.live_rows(), 1u);
}

TEST(Table, DuplicateInsertReturnsNoRow) {
  table t(0, "t", two_col_schema(), 128);
  std::vector<std::byte> payload(20);
  EXPECT_NE(t.insert(7, payload), kNoRow);
  EXPECT_EQ(t.insert(7, payload), kNoRow);
}

// Regression (storage-layer bugfix sweep): a duplicate-key insert used to
// leak its allocated slot — allocated_rows() drifted from live_rows() and
// a duplicate storm ate the loader's headroom until the table "filled up"
// while almost empty. The slot must be recycled.
TEST(Table, DuplicateInsertStormDoesNotLeakSlots) {
  table t(0, "t", two_col_schema(), 4);
  std::vector<std::byte> payload(20);
  ASSERT_NE(t.insert(1, payload), kNoRow);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(t.insert(1, payload), kNoRow);  // way past capacity 4
  }
  EXPECT_EQ(t.allocated_rows(), t.live_rows());
  // Headroom survived the storm: three more distinct keys still fit.
  EXPECT_NE(t.insert(2, payload), kNoRow);
  EXPECT_NE(t.insert(3, payload), kNoRow);
  EXPECT_NE(t.insert(4, payload), kNoRow);
  EXPECT_EQ(t.live_rows(), 4u);
}

// Regression (storage-layer bugfix sweep): an oversized payload used to be
// silently truncated into the row (schema-mismatch corruption); it must
// fail loudly instead. Short payloads stay legal (zero-padded).
TEST(Table, OversizedPayloadThrows) {
  table t(0, "t", two_col_schema(), 8);  // row size 20
  std::vector<std::byte> too_wide(21);
  EXPECT_THROW(t.insert(1, too_wide), std::invalid_argument);
  EXPECT_EQ(t.live_rows(), 0u);
  EXPECT_EQ(t.allocated_rows(), 0u);  // the slot was not leaked either
  std::vector<std::byte> short_ok(8);
  EXPECT_NE(t.insert(1, short_ok), kNoRow);
}

TEST(Table, CapacityExhaustionThrows) {
  table t(0, "t", two_col_schema(), 2);
  std::vector<std::byte> payload(20);
  t.insert(1, payload);
  t.insert(2, payload);
  EXPECT_THROW(t.insert(3, payload), std::length_error);
}

TEST(Table, StateHashIgnoresInsertionOrder) {
  table a(0, "t", two_col_schema(), 16);
  table b(0, "t", two_col_schema(), 16);
  std::vector<std::byte> p1(20), p2(20);
  write_u64(std::span<std::byte>(p1), 0, 1);
  write_u64(std::span<std::byte>(p2), 0, 2);
  a.insert(10, p1);
  a.insert(20, p2);
  b.insert(20, p2);
  b.insert(10, p1);
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

TEST(Table, StateHashSeesValueChange) {
  table a(0, "t", two_col_schema(), 16);
  std::vector<std::byte> p(20);
  const auto rid = a.insert(10, p);
  const auto h0 = a.state_hash();
  write_u64(a.row(rid), 0, 777);
  EXPECT_NE(a.state_hash(), h0);
}

TEST(Table, EraseRemovesFromHashAndIndex) {
  table a(0, "t", two_col_schema(), 16);
  std::vector<std::byte> p(20);
  a.insert(10, p);
  const auto h_with = a.state_hash();
  a.erase(10);
  EXPECT_EQ(a.lookup(10), kNoRow);
  EXPECT_NE(a.state_hash(), h_with);
  EXPECT_EQ(a.live_rows(), 0u);
}

// --- per-partition arenas --------------------------------------------------

TEST(RidCodec, RoundTripsShardAndSlot) {
  const row_id_t rid = make_rid(13, 0x123456789aull);
  EXPECT_EQ(rid_shard(rid), 13u);
  EXPECT_EQ(rid_slot(rid), 0x123456789aull);
  EXPECT_EQ(rid_shard(make_rid(0, 0)), 0u);
  EXPECT_EQ(rid_slot(make_rid(0, 0)), 0u);
}

TEST(Table, ShardedInsertRoutesToHomeArena) {
  table t(0, "t", two_col_schema(), 64, /*shards=*/4);
  ASSERT_EQ(t.shard_count(), 4u);
  std::vector<std::byte> p(20);
  for (key_t k = 0; k < 32; ++k) {
    const auto part = static_cast<part_id_t>(k % 4);
    const auto rid = t.insert(k, p, part);
    ASSERT_NE(rid, kNoRow);
    EXPECT_EQ(rid_shard(rid), part);  // row landed in its home arena
  }
  for (part_id_t s = 0; s < 4; ++s) {
    EXPECT_EQ(t.live_rows_in(s), 8u);
    EXPECT_EQ(t.allocated_rows_in(s), 8u);
  }
  EXPECT_EQ(t.live_rows(), 32u);
}

TEST(Table, LookupRoutesToHomeShard) {
  table t(0, "t", two_col_schema(), 64, /*shards=*/4);
  std::vector<std::byte> p(20);
  std::vector<row_id_t> rids;
  for (key_t k = 0; k < 32; ++k) {
    rids.push_back(t.insert(k, p, static_cast<part_id_t>(k % 4)));
  }
  for (key_t k = 0; k < 40; ++k) {
    const auto part = static_cast<part_id_t>(k % 4);
    const row_id_t rid = t.lookup(k, part);
    if (k < 32) {
      EXPECT_EQ(rid, rids[k]);
      EXPECT_EQ(rid_shard(rid), t.home_shard(part));
      // Another partition's shard does not hold the key.
      EXPECT_EQ(t.lookup(k, static_cast<part_id_t>((k + 1) % 4)), kNoRow);
    } else {
      EXPECT_EQ(rid, kNoRow);
    }
  }
}

TEST(Table, StateHashIndependentOfShardCount) {
  table one(0, "t", two_col_schema(), 64);
  table four(0, "t", two_col_schema(), 64, 4);
  std::vector<std::byte> p(20);
  for (key_t k = 0; k < 32; ++k) {
    write_u64(std::span<std::byte>(p), 0, k * 31);
    one.insert(k, p);
    four.insert(k, p, static_cast<part_id_t>(k % 4));
  }
  EXPECT_EQ(one.state_hash(), four.state_hash());
  EXPECT_EQ(one.live_rows(), four.live_rows());
}

TEST(Table, ShardCapacityIsPerArena) {
  table t(0, "t", two_col_schema(), 4, /*shards=*/2);  // 2 slots per arena
  std::vector<std::byte> p(20);
  EXPECT_NE(t.insert(0, p, 0), kNoRow);
  EXPECT_NE(t.insert(2, p, 0), kNoRow);
  // Shard 0 is full; its arena throws even though shard 1 is empty.
  EXPECT_THROW(t.insert(4, p, 0), std::length_error);
  EXPECT_NE(t.insert(1, p, 1), kNoRow);  // shard 1 unaffected
}

TEST(Table, EraseThenReinsertReclaimsTombstone) {
  table t(0, "t", two_col_schema(), 8, 2);
  std::vector<std::byte> p(20);
  write_u64(std::span<std::byte>(p), 0, 1);
  ASSERT_NE(t.insert(6, p, 0), kNoRow);
  ASSERT_TRUE(t.erase(6, 0));
  EXPECT_EQ(t.lookup(6, 0), kNoRow);
  write_u64(std::span<std::byte>(p), 0, 2);
  const auto rid = t.insert(6, p, 0);
  ASSERT_NE(rid, kNoRow);
  EXPECT_EQ(t.lookup(6, 0), rid);
  EXPECT_EQ(read_u64(t.row(rid), 0), 2u);
  EXPECT_EQ(t.live_rows_in(0), 1u);
}

TEST(Database, ClonePreservesShardLayout) {
  database db;
  auto& t = db.create_table("t", two_col_schema(), 64, 4);
  std::vector<std::byte> p(20);
  for (key_t k = 0; k < 32; ++k) {
    write_u64(std::span<std::byte>(p), 0, k * 7);
    t.insert(k, p, static_cast<part_id_t>(k % 4));
  }
  auto copy = db.clone();
  EXPECT_EQ(copy->state_hash(), db.state_hash());
  const auto& ct = copy->at(0);
  ASSERT_EQ(ct.shard_count(), 4u);
  for (part_id_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ct.shard_capacity(s), t.shard_capacity(s));
    EXPECT_EQ(ct.live_rows_in(s), t.live_rows_in(s));
  }
}

TEST(DualVersion, ShardedSnapshotsAndPublishes) {
  database db;
  auto& t = db.create_table("t", two_col_schema(), 64, 4);
  std::vector<std::byte> p(20);
  write_u64(std::span<std::byte>(p), 0, 5);
  const auto rid = t.insert(9, p, 1);  // shard 1
  ASSERT_EQ(rid_shard(rid), 1u);

  dual_version_store dv(db);
  EXPECT_EQ(read_u64(dv.committed_row(0, rid), 0), 5u);
  write_u64(t.row(rid), 0, 42);
  EXPECT_EQ(read_u64(dv.committed_row(0, rid), 0), 5u);  // still old
  dv.publish(db, 0, rid);
  EXPECT_EQ(read_u64(dv.committed_row(0, rid), 0), 42u);
}

// --- lock-free reader / atomic size guarantees (TSAN-exercised) ------------

// Regression (storage-layer bugfix sweep): size() used to walk every
// bucket unsynchronized while writers held only their own stripe — a data
// race and a torn count. It now reads a single atomic counter; this test
// hammers it (and the lock-free lookup path) against concurrent writers
// and runs under the ThreadSanitizer CI job.
TEST(HashIndex, SizeAndLockFreeLookupSafeUnderConcurrentWriters) {
  hash_index idx(1 << 12);
  constexpr int kWriters = 4;
  constexpr key_t kPerWriter = 2000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};

  std::thread reader([&] {
    key_t k = 0;
    while (!done.load(std::memory_order_acquire)) {
      reads.fetch_add(1, std::memory_order_relaxed);
      const std::size_t s = idx.size();
      ASSERT_LE(s, static_cast<std::size_t>(kWriters) * kPerWriter);
      const row_id_t r = idx.lookup(k);
      if (r != kNoRow) {
        // A published entry is complete: the row is the one its key got.
        ASSERT_EQ(r, k * 10);
      }
      k = (k + 7) % (kWriters * kPerWriter);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&idx, &reads, w] {
      // Start once the reader runs, so its lookups overlap the writes even
      // when the scheduler is slow to start it.
      while (reads.load() == 0) std::this_thread::yield();
      for (key_t i = 0; i < kPerWriter; ++i) {
        const key_t k = i * kWriters + w;
        idx.insert(k, k * 10);
        if (i % 3 == 0) idx.erase(k);  // tombstone churn
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);

  // Exact at the quiescent point: every 3rd key per writer was erased.
  std::size_t expect = 0;
  for (key_t i = 0; i < kPerWriter; ++i) expect += (i % 3 == 0) ? 0 : 1;
  EXPECT_EQ(idx.size(), expect * kWriters);
}

TEST(Database, CatalogResolution) {
  database db;
  db.create_table("alpha", two_col_schema(), 8);
  db.create_table("beta", two_col_schema(), 8);
  EXPECT_EQ(db.cat().id_of("alpha"), 0);
  EXPECT_EQ(db.cat().id_of("beta"), 1);
  EXPECT_EQ(db.cat().name_of(1), "beta");
  EXPECT_THROW(db.cat().id_of("gamma"), std::out_of_range);
  EXPECT_THROW(db.create_table("alpha", two_col_schema(), 8),
               std::invalid_argument);
}

// database::state_hash is order-independent *within* a table but combines
// tables order-sensitively (see database.hpp): swapping two rows between
// tables keeps the multiset of (key, payload) pairs identical yet must
// change the hash, or a recovery that restored rows into the wrong tables
// would go undetected.
TEST(Database, StateHashDistinguishesWhichTableHoldsARow) {
  std::vector<std::byte> p1(20), p2(20);
  write_u64(std::span<std::byte>(p1), 0, 111);
  write_u64(std::span<std::byte>(p2), 0, 222);

  database a;  // alpha holds p1, beta holds p2
  a.create_table("alpha", two_col_schema(), 8).insert(1, p1);
  a.create_table("beta", two_col_schema(), 8).insert(2, p2);

  database b;  // the same two rows, swapped between the tables
  b.create_table("alpha", two_col_schema(), 8).insert(2, p2);
  b.create_table("beta", two_col_schema(), 8).insert(1, p1);

  EXPECT_NE(a.state_hash(), b.state_hash());

  database c;  // identical contents to `a`, different insertion order
  auto& c_alpha = c.create_table("alpha", two_col_schema(), 8);
  auto& c_beta = c.create_table("beta", two_col_schema(), 8);
  c_beta.insert(2, p2);
  c_alpha.insert(1, p1);
  EXPECT_EQ(a.state_hash(), c.state_hash());
}

TEST(Database, CloneMatchesStateHash) {
  database db;
  auto& t = db.create_table("t", two_col_schema(), 32);
  std::vector<std::byte> p(20);
  for (key_t k = 0; k < 10; ++k) {
    write_u64(std::span<std::byte>(p), 0, k * 11);
    t.insert(k, p);
  }
  auto copy = db.clone();
  EXPECT_EQ(copy->state_hash(), db.state_hash());
  // Mutating the clone must not affect the original.
  write_u64(copy->at(0).row(copy->at(0).lookup(3)), 0, 999);
  EXPECT_NE(copy->state_hash(), db.state_hash());
}

TEST(DualVersion, SnapshotsAndPublishes) {
  database db;
  auto& t = db.create_table("t", two_col_schema(), 32);
  std::vector<std::byte> p(20);
  write_u64(std::span<std::byte>(p), 0, 5);
  const auto rid = t.insert(1, p);

  dual_version_store dv(db);
  EXPECT_EQ(read_u64(dv.committed_row(0, rid), 0), 5u);

  write_u64(t.row(rid), 0, 42);  // dirty the working copy
  EXPECT_EQ(read_u64(dv.committed_row(0, rid), 0), 5u);  // still old

  dv.publish(db, 0, rid);
  EXPECT_EQ(read_u64(dv.committed_row(0, rid), 0), 42u);
}

// --- prefetch hints and huge-page backing -----------------------------------
// A prefetch is a hint: it must be safe on any key or valid row id, and
// must change no lookup result, size or state hash.

TEST(HashIndex, PrefetchChangesNothingOnAbsentTombstonedAndChainedKeys) {
  // 16 buckets of 4 inline slots for 300 keys: most buckets chain overflow
  // nodes, so some keys live past the bucket head the prefetch covers.
  hash_index idx(16);
  for (key_t k = 0; k < 300; ++k) ASSERT_TRUE(idx.insert(k * 3, k));
  for (key_t k = 0; k < 300; k += 5) ASSERT_TRUE(idx.erase(k * 3));
  const auto snapshot = [&idx] {
    std::vector<row_id_t> out;
    for (key_t k = 0; k < 1000; ++k) out.push_back(idx.lookup(k));
    return out;
  };
  const auto before = snapshot();
  const std::size_t size = idx.size();
  // Live, tombstoned, absent and chained keys, and the extremes.
  for (key_t k = 0; k < 1000; ++k) idx.prefetch(k);
  idx.prefetch(kInvalidKey);
  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(idx.size(), size);
  EXPECT_EQ(before[3], 1u);        // live
  EXPECT_EQ(before[15], kNoRow);   // tombstoned
  EXPECT_EQ(before[4], kNoRow);    // never inserted
}

TEST(Table, PrefetchKeyOnEveryShardChangesNothing) {
  for (const index_kind k : {index_kind::hash, index_kind::ordered}) {
    SCOPED_TRACE(index_kind_name(k));
    auto s = two_col_schema();
    s.with_index(k);
    database db;
    auto& t = db.create_table("t", s, 256, /*shards=*/4);
    std::vector<std::byte> p(20);
    for (key_t key = 0; key < 128; ++key) {
      write_u64(std::span<std::byte>(p), 0, key * 11);
      ASSERT_NE(t.insert(key, p, static_cast<part_id_t>(key % 4)), kNoRow);
    }
    ASSERT_TRUE(t.erase(6, 2));
    const std::uint64_t hash = db.state_hash();
    // Keys of every shard's partition: live, erased and absent, each also
    // under every other partition, where it is absent.
    for (key_t key = 0; key < 200; ++key) {
      for (part_id_t part = 0; part < 4; ++part) t.prefetch_key(key, part);
    }
    EXPECT_EQ(db.state_hash(), hash);
    EXPECT_EQ(t.live_rows(), 127u);
    for (part_id_t sh = 0; sh < 4; ++sh) {
      EXPECT_EQ(t.live_rows_in(sh), sh == 2 ? 31u : 32u);
    }
    EXPECT_EQ(t.lookup(6, 2), kNoRow);
    for (key_t key = 7; key < 128; ++key) {
      const auto rid = t.lookup(key, static_cast<part_id_t>(key % 4));
      ASSERT_NE(rid, kNoRow);
      EXPECT_EQ(read_u64(t.row(rid), 0), key * 11);
    }
  }
}

TEST(HugePages, LargeBlocksAreAlignedAndZeroed) {
  std::vector<std::byte, huge_page_allocator<std::byte>> big(kHugePage + 100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % kHugePage, 0u);
  EXPECT_TRUE(std::all_of(big.begin(), big.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  big.back() = std::byte{7};  // the tail past the last whole huge page
  EXPECT_EQ(big.back(), std::byte{7});
  std::vector<int, huge_page_allocator<int>> small(10, 3);
  EXPECT_EQ(std::accumulate(small.begin(), small.end(), 0), 30);
}

TEST(HugePages, TableSlabSpanningHugePagesKeepsEveryRow) {
  // 16-byte rows: 2^17 + 64 of them fill one whole huge page and a tail.
  const schema s({{"A", col_type::u64, 8}, {"B", col_type::u64, 8}});
  const std::size_t rows = kHugePage / 16 + 64;
  table t(0, "t", s, rows);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.shard_slab(0).data()) %
                kHugePage,
            0u);
  std::vector<std::byte> p(16);
  for (key_t key = 0; key < rows; ++key) {
    write_u64(std::span<std::byte>(p), 0, key);
    ASSERT_NE(t.insert(key, p), kNoRow);
  }
  for (key_t key = 0; key < rows; key += 997) {
    EXPECT_EQ(read_u64(t.row(t.lookup(key)), 0), key);
  }
  EXPECT_EQ(read_u64(t.row(t.lookup(rows - 1)), 0), rows - 1);
}

}  // namespace
}  // namespace quecc::storage
