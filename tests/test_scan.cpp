// Ordered index backend + scan fragments, end to end:
//   * skip-list unit semantics (insert/erase/tombstone-reinsert, ascending
//     visit order, range bounds, early stop);
//   * lock-free readers racing a writer (run under TSAN in CI);
//   * the table iteration-order contract checkpoints rely on;
//   * checkpoint round-trips of ordered arenas, and backend-mismatch
//     rejection;
//   * plan-codec round-trips of scan fragments (key_hi, kAllParts);
//   * hash vs ordered backend: identical state hashes on scan-free runs.
// Scan results across engines and configurations are test_oracle's.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "log/checkpoint.hpp"
#include "log/plan_codec.hpp"
#include "log/recovery.hpp"
#include "storage/ordered_index.hpp"
#include "test_util.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using common::config;

// --- ordered_index unit semantics ------------------------------------------

std::vector<key_t> range_keys(const storage::ordered_index& idx, key_t lo,
                              key_t hi) {
  std::vector<key_t> out;
  EXPECT_TRUE(idx.visit_range(
      lo, hi,
      [](void* ctx, key_t k, storage::row_id_t) {
        static_cast<std::vector<key_t>*>(ctx)->push_back(k);
        return true;
      },
      &out));
  return out;
}

TEST(OrderedIndex, InsertLookupErase) {
  storage::ordered_index idx(64);
  EXPECT_TRUE(idx.insert(5, 50));
  EXPECT_FALSE(idx.insert(5, 51));  // duplicate
  EXPECT_EQ(idx.lookup(5), 50u);
  EXPECT_EQ(idx.lookup(6), storage::kNoRow);
  EXPECT_TRUE(idx.erase(5));
  EXPECT_FALSE(idx.erase(5));
  EXPECT_EQ(idx.lookup(5), storage::kNoRow);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.kind(), storage::index_kind::ordered);
}

TEST(OrderedIndex, VisitRangeAscendingAndBounded) {
  storage::ordered_index idx(256);
  // Insert in descending order; visits must still come out ascending.
  for (key_t k = 100; k > 0; --k) ASSERT_TRUE(idx.insert(k * 3, k));
  const auto keys = range_keys(idx, 30, 90);  // [30, 90): keys 30,33..87
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.front(), 30u);
  EXPECT_EQ(keys.back(), 87u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);
  }
  // Empty range; and a range past the end.
  EXPECT_TRUE(range_keys(idx, 31, 33).empty());
  EXPECT_TRUE(range_keys(idx, 1000, 2000).empty());
}

TEST(OrderedIndex, VisitorEarlyStop) {
  storage::ordered_index idx(64);
  for (key_t k = 0; k < 32; ++k) ASSERT_TRUE(idx.insert(k, k));
  std::size_t seen = 0;
  idx.visit_range(
      0, 32,
      [](void* ctx, key_t, storage::row_id_t) {
        return ++*static_cast<std::size_t*>(ctx) < 5;
      },
      &seen);
  EXPECT_EQ(seen, 5u);
}

TEST(OrderedIndex, TombstoneReinsertReclaims) {
  storage::ordered_index idx(64);
  ASSERT_TRUE(idx.insert(7, 70));
  ASSERT_TRUE(idx.erase(7));
  EXPECT_TRUE(range_keys(idx, 0, 100).empty());  // tombstone invisible
  ASSERT_TRUE(idx.insert(7, 71));  // reclaims the tombstoned node
  EXPECT_EQ(idx.lookup(7), 71u);
  EXPECT_EQ(range_keys(idx, 0, 100), std::vector<key_t>{7});
  EXPECT_EQ(idx.size(), 1u);
}

TEST(OrderedIndex, VisitLiveAscendingKeyOrder) {
  storage::ordered_index a(256);
  storage::ordered_index b(256);
  // Same key set, opposite insertion orders: identical ascending visits
  // (skip-list structure is a pure function of the key set).
  for (key_t k = 0; k < 64; ++k) ASSERT_TRUE(a.insert(k * 5 + 1, k));
  for (key_t k = 64; k > 0; --k) ASSERT_TRUE(b.insert((k - 1) * 5 + 1, k));
  std::vector<key_t> ka, kb;
  const auto collect = [](void* ctx, key_t k, storage::row_id_t) {
    static_cast<std::vector<key_t>*>(ctx)->push_back(k);
    return true;
  };
  a.visit_live(collect, &ka);
  b.visit_live(collect, &kb);
  EXPECT_EQ(ka, kb);
  for (std::size_t i = 1; i < ka.size(); ++i) EXPECT_LT(ka[i - 1], ka[i]);
}

// Lock-free readers race one writer (the engine's contract: writers are
// serialized per shard upstream, readers take no lock). TSAN validates
// the publication protocol in CI.
TEST(OrderedIndex, LockFreeReadersUnderConcurrentWriter) {
  storage::ordered_index idx(1 << 12);
  for (key_t k = 0; k < 512; k += 2) ASSERT_TRUE(idx.insert(k, k));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> observed{0};  // defeats dead-code elimination
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&idx, &stop, &observed] {
      // No value assertions here: what this test checks is that the reads
      // are race-free (TSAN) and never observe torn structure (no crash,
      // visitor invariants hold). At least one full pass runs even if the
      // writer finishes first.
      std::uint64_t sink = 0;
      do {
        for (key_t k = 0; k < 512; ++k) sink += idx.lookup(k) + 1;
        key_t prev = 0;
        idx.visit_range(
            100, 400,
            [](void* ctx, key_t k, storage::row_id_t) {
              auto* p = static_cast<key_t*>(ctx);
              EXPECT_LT(*p, k);  // still strictly ascending mid-write
              *p = k;
              return true;
            },
            &prev);
      } while (!stop.load(std::memory_order_acquire));
      // Relaxed: a plain sink publication, no ordering required.
      observed.fetch_add(sink, std::memory_order_relaxed);
    });
  }
  for (int round = 0; round < 50; ++round) {
    for (key_t k = 1; k < 512; k += 2) idx.insert(k, k);
    for (key_t k = 1; k < 512; k += 2) idx.erase(k);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(idx.size(), 256u);
}

// --- table iteration-order contract (checkpoint take side) ------------------

TEST(Table, ForEachLiveInOrderContract) {
  const storage::schema hash_s({{"A", storage::col_type::u64, 8}});
  auto ordered_s = storage::schema({{"A", storage::col_type::u64, 8}});
  ordered_s.with_index(storage::index_kind::ordered);

  const std::vector<key_t> history = {9, 2, 14, 5, 11, 3, 8, 1};
  std::vector<std::byte> p(8);
  const auto build = [&](storage::database& db, const storage::schema& s) {
    auto& t = db.create_table("t", s, 64);
    for (key_t k : history) t.insert(k, p);
    return &t;
  };
  const auto sequence = [](const storage::table& t) {
    std::vector<key_t> out;
    t.for_each_live_in(0, [&](key_t k, storage::row_id_t) {
      out.push_back(k);
    });
    return out;
  };

  // Hash backend: order is deterministic for identical insertion
  // histories (this is what makes checkpoint bytes reproducible) ...
  storage::database h1, h2;
  const auto seq1 = sequence(*build(h1, hash_s));
  EXPECT_EQ(seq1, sequence(*build(h2, hash_s)));
  ASSERT_EQ(seq1.size(), history.size());

  // ... and the ordered backend pins ascending key order outright.
  storage::database o1;
  std::vector<key_t> expect = history;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sequence(*build(o1, ordered_s)), expect);
}

// --- hash vs ordered: identical results when nothing scans ------------------

TEST(ScanFree, HashAndOrderedBackendsHashIdentically) {
  std::vector<std::uint64_t> hashes;
  for (const auto kind :
       {storage::index_kind::hash, storage::index_kind::ordered}) {
    SCOPED_TRACE(storage::index_kind_name(kind));
    wl::ycsb_config wcfg;
    wcfg.table_size = 2048;
    wcfg.partitions = 4;
    wcfg.zipf_theta = 0.8;
    wcfg.read_ratio = 0.4;
    wcfg.index = kind;
    auto w = wl::ycsb(wcfg);
    auto db = testutil::make_loaded_db(w);
    EXPECT_EQ(db->at(0).index(), kind);

    common::rng r(23);
    auto b = w.make_batch(r, 512);
    config cfg;
    cfg.planner_threads = 2;
    cfg.executor_threads = 2;
    core::quecc_engine eng(*db, cfg);
    common::run_metrics m;
    eng.run_batch(b, m);

    // Same seed, same stream: both backends must land on one hash.
    hashes.push_back(db->state_hash());
  }
  ASSERT_EQ(hashes.size(), 2u);
  EXPECT_EQ(hashes[0], hashes[1]);
}

// --- checkpoint: ordered arenas round-trip, mismatches rejected -------------

using testutil::temp_dir;

storage::schema ordered_u64_schema() {
  auto s = storage::schema({{"A", storage::col_type::u64, 8}});
  s.with_index(storage::index_kind::ordered);
  return s;
}

TEST(Checkpoint, OrderedArenaRoundTrips) {
  storage::database src;
  auto& t1 = src.create_table("t", ordered_u64_schema(), 256, 2);
  std::vector<std::byte> p(8);
  for (int k = 97; k > 0; k -= 3) {  // unordered insertion history
    storage::write_u64(std::span<std::byte>(p), 0,
                       static_cast<std::uint64_t>(k) * 7);
    t1.insert(static_cast<key_t>(k), p, static_cast<part_id_t>(k % 2));
  }

  temp_dir dir;
  log::checkpointer ck(dir.path);
  const auto meta = ck.take(src, 1, 33, 1);

  storage::database dst;
  auto& t2 = dst.create_table("t", ordered_u64_schema(), 256, 2);
  (void)t2;
  log::restore_checkpoint(dir.path + "/" + meta.file, dst);
  EXPECT_EQ(dst.state_hash(), src.state_hash());

  // Restored ordered arenas must still answer range scans in key order.
  std::vector<key_t> keys;
  dst.at(0).visit_range_in(1, 0, 1000,
                           [](void* ctx, key_t k, storage::row_id_t) {
                             static_cast<std::vector<key_t>*>(ctx)
                                 ->push_back(k);
                             return true;
                           },
                           &keys);
  ASSERT_FALSE(keys.empty());
  for (std::size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);

  // A second checkpoint of the restored database is bit-identical modulo
  // ids: same state hash recorded, ordered serialization is key-ordered.
  temp_dir dir2;
  log::checkpointer ck2(dir2.path);
  const auto meta2 = ck2.take(dst, 1, 33, 1);
  EXPECT_EQ(meta2.state_hash, meta.state_hash);
}

TEST(Checkpoint, IndexBackendMismatchRejected) {
  storage::database src;
  auto& t1 = src.create_table("t", ordered_u64_schema(), 64);
  std::vector<std::byte> p(8);
  t1.insert(3, p);

  temp_dir dir;
  log::checkpointer ck(dir.path);
  const auto meta = ck.take(src, 1, 0, 1);

  storage::database dst;  // same shape, hash backend
  dst.create_table("t", storage::schema({{"A", storage::col_type::u64, 8}}),
                   64);
  EXPECT_THROW(log::restore_checkpoint(dir.path + "/" + meta.file, dst),
               std::runtime_error);
}

// --- plan codec: scan fragments round-trip ----------------------------------

TEST(PlanCodec, ScanFragmentsRoundTrip) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1024;
  wcfg.partitions = 4;
  wcfg.scan_ratio = 1.0;  // every txn is a scan
  wcfg.scan_len = 32;
  auto w = wl::ycsb(wcfg);
  storage::database db;
  w.load(db);

  common::rng r(5);
  auto b = w.make_batch(r, 16, 9);
  std::vector<std::byte> bytes;
  log::encode_batch(b, bytes);
  const auto decoded = log::decode_batch(bytes, log::resolver_for(w));

  ASSERT_EQ(decoded.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const auto& orig = b.at(i).frags;
    const auto& got = decoded.at(i).frags;
    ASSERT_EQ(got.size(), orig.size());
    for (std::size_t fi = 0; fi < orig.size(); ++fi) {
      EXPECT_EQ(got[fi].kind, txn::op_kind::scan);
      EXPECT_EQ(got[fi].key, orig[fi].key);
      EXPECT_EQ(got[fi].key_hi, orig[fi].key_hi);
      EXPECT_EQ(got[fi].part, txn::kAllParts);
    }
  }
}

}  // namespace
}  // namespace quecc
