// Speculative recovery (core::spec_manager), directly and end to end:
//   * hand-built executor logs: a logic abort's dirty write taints its
//     reader, rollback restores before-images and frees the aborted
//     insert's slot, re-execution replays clean values; an abort that
//     flips into a commit escalates and restores the batch-start state;
//   * the split-record check counts a record whose undo entries span two
//     executor logs — the invariant log-order rollback rests on;
//   * bank under speculation escalates to whole-batch re-execution and
//     still equals serial;
//   * the one-log-per-record invariant holds under read-committed,
//     kAllParts scans and dist-quecc with two nodes;
//   * rolled-back inserts free their row slots (TPC-C full mix, depths 1
//     and 2), and an inplace_host over a kept undo log (the recovery
//     pass's) frees each slot exactly once, whether or not the log is
//     unwound afterwards;
//   * the planner decides TPC-C's ITEM checks exactly as serial does.
// Plan-time against run-time aborts, and which batches executors log for
// recovery, are checked across engine configurations by test_oracle.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>

#include "core/engine.hpp"
#include "core/planner.hpp"
#include "core/spec_manager.hpp"
#include "dist/dist_quecc.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "workload/bank.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using common::config;
using common::exec_model;
using common::isolation;

// --- a one-column table and a procedure over it ----------------------------

enum logic : std::uint16_t {
  kAbortIfAux,   ///< abortable read: aborts when aux != 0
  kAbortAbove,   ///< abortable read: aborts when the value exceeds aux
  kAdd,          ///< value += aux
  kReadToSlot0,  ///< slot 0 = value
  kCopySlot0,    ///< value = slot 0
  kInsert,       ///< insert a row holding aux
  kErase,        ///< erase the row
};

txn::frag_status run_logic(const txn::fragment& f, txn::txn_desc& t,
                           txn::frag_host& h) {
  switch (f.logic) {
    case kAbortIfAux:
      return f.aux != 0 ? txn::frag_status::abort : txn::frag_status::ok;
    case kAbortAbove: {
      const auto row = h.read_row(f, t);
      return storage::read_u64(row, 0) > f.aux ? txn::frag_status::abort
                                                : txn::frag_status::ok;
    }
    case kAdd: {
      const auto row = h.update_row(f, t);
      storage::write_u64(row, 0, storage::read_u64(row, 0) + f.aux);
      return txn::frag_status::ok;
    }
    case kReadToSlot0:
      t.produce(0, storage::read_u64(h.read_row(f, t), 0));
      return txn::frag_status::ok;
    case kCopySlot0:
      storage::write_u64(h.update_row(f, t), 0, t.slot_value(0));
      return txn::frag_status::ok;
    case kInsert: {
      const auto row = h.insert_row(f, t);
      if (!row.empty()) storage::write_u64(row, 0, f.aux);
      return txn::frag_status::ok;
    }
    case kErase:
      h.erase_row(f, t);
      return txn::frag_status::ok;
  }
  return txn::frag_status::ok;
}

const txn::procedure kProc("spec_test", &run_logic, 1);

txn::fragment frag(std::uint16_t idx, logic l, key_t key,
                   std::uint64_t aux = 0) {
  txn::fragment f;
  f.idx = idx;
  f.logic = l;
  f.key = key;
  f.aux = aux;
  switch (l) {
    case kAbortIfAux:
    case kAbortAbove:
      f.abortable = true;
      break;
    case kReadToSlot0:
      f.output_slot = 0;
      break;
    case kAdd:
      f.kind = txn::op_kind::update;
      break;
    case kCopySlot0:
      f.kind = txn::op_kind::update;
      f.input_mask = 1;
      break;
    case kInsert:
      f.kind = txn::op_kind::insert;
      break;
    case kErase:
      f.kind = txn::op_kind::erase;
      break;
  }
  return f;
}

void add_txn(txn::batch& b, std::vector<txn::fragment> frags) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &kProc;
  t->frags = std::move(frags);
  b.add(std::move(t));
}

/// Table 0 with keys 1 and 2 holding 100 each.
std::unique_ptr<storage::database> make_db() {
  auto db = std::make_unique<storage::database>();
  auto& tab = db->create_table(
      "t", storage::schema({storage::column{"v"}}), 16);
  for (key_t k : {1, 2}) {
    std::array<std::byte, 8> v{};
    storage::write_u64(v, 0, 100);
    tab.insert(k, v);
  }
  return db;
}

std::uint64_t value_of(const storage::database& db, key_t k) {
  const auto rid = db.at(0).lookup(k);
  return rid == storage::kNoRow ? 0 : storage::read_u64(db.at(0).row(rid), 0);
}

/// One executor's speculative effects, applied to the table and logged
/// exactly as core::executor logs them.
struct spec_exec {
  storage::table& tab;
  core::exec_logs log;

  void update(seq_t s, key_t k, std::uint64_t v) {
    const auto rid = tab.lookup(k);
    const auto row = tab.row(rid);
    log.undo.add(s, 0, k, rid, txn::op_kind::update, row);
    storage::write_u64(row, 0, v);
  }
  storage::row_id_t insert(seq_t s, key_t k, std::uint64_t v) {
    const auto rid = tab.allocate_row();
    storage::write_u64(tab.row(rid), 0, v);
    tab.index_row(k, rid);
    log.undo.add(s, 0, k, rid, txn::op_kind::insert);
    return rid;
  }
  void erase(seq_t s, key_t k) {
    const auto rid = tab.lookup(k);
    tab.erase(k);
    log.undo.add(s, 0, k, rid, txn::op_kind::erase);
  }
  void read(seq_t s, key_t k) { log.reads.push_back({s, 0, k}); }
};

/// Serial reference: `b` replayed in sequence order on a fresh db.
std::uint64_t serial_hash(txn::batch& b) {
  auto db = make_db();
  testutil::replay_in_seq_order(*db, b);
  return db->state_hash();
}

// --- spec_manager, directly --------------------------------------------------

TEST(SpecManager, TaintsRollsBackFreesSlotsAndReplays) {
  auto db = make_db();
  txn::batch b;
  // t0 aborts on logic after its writes ran speculatively.
  add_txn(b, {frag(0, kAbortIfAux, 1, 1), frag(1, kAdd, 1, 10),
              frag(2, kInsert, 5, 55)});
  // t1 reads t0's dirty key 1 and copies it into key 2.
  add_txn(b, {frag(0, kReadToSlot0, 1), frag(1, kCopySlot0, 2)});
  // t2 touches nothing t0 or t1 touched.
  add_txn(b, {frag(0, kInsert, 3, 33)});
  b.validate();

  spec_exec ex{db->at(0), {}};
  ex.update(0, 1, 110);
  const auto aborted_slot = ex.insert(0, 5, 55);
  ex.read(1, 1);
  ex.update(1, 2, 110);
  ex.insert(2, 3, 33);
  b.at(0).mark_aborted();

  core::spec_manager sm(*db);
  std::array<core::exec_logs*, 1> logs{&ex.log};
  const auto st = sm.recover(b, logs);

  EXPECT_EQ(st.logic_aborts, 1u);
  EXPECT_EQ(st.cascades, 1u);  // t1 read dirty data; t2 is untouched
  EXPECT_EQ(st.reexecuted, 2u);
  EXPECT_FALSE(st.full_redo);
  EXPECT_EQ(st.split_records, 0u);
  EXPECT_TRUE(b.at(0).aborted());
  EXPECT_FALSE(b.at(1).aborted());
  EXPECT_EQ(value_of(*db, 1), 100u);
  EXPECT_EQ(value_of(*db, 2), 100u);  // re-read the clean value
  EXPECT_EQ(db->at(0).lookup(5), storage::kNoRow);
  EXPECT_EQ(value_of(*db, 3), 33u);
  // The aborted insert's slot went back to the free list, blank.
  EXPECT_EQ(db->at(0).allocated_rows(), db->at(0).live_rows());
  for (const std::byte x : db->at(0).row(aborted_slot)) {
    EXPECT_EQ(x, std::byte{0});
  }
  EXPECT_EQ(db->state_hash(), serial_hash(b));
}

TEST(SpecManager, FlippedAbortEscalatesToBatchStartReplay) {
  auto db = make_db();
  txn::batch b;
  // t0: a logic abort whose dirty writes push key 1 to 110 and insert 7.
  add_txn(b, {frag(0, kAbortIfAux, 1, 1), frag(1, kAdd, 1, 10),
              frag(2, kInsert, 7, 77)});
  // t1 aborts on the dirty 110 — but commits on the clean 100.
  add_txn(b, {frag(0, kAbortAbove, 1, 105), frag(1, kInsert, 6, 66)});
  // t2 is unaffected; escalation must undo and replay it too.
  add_txn(b, {frag(0, kAdd, 2, 5), frag(1, kInsert, 3, 33)});
  // t3 erases t0's dirty insert: both entries on key 7 are affected and
  // undone once, by the partial rollback — undoing them again during
  // escalation would free key 7's slot twice.
  add_txn(b, {frag(0, kErase, 7)});
  b.validate();

  spec_exec ex{db->at(0), {}};
  ex.update(0, 1, 110);
  ex.insert(0, 7, 77);
  ex.read(1, 1);
  ex.update(2, 2, 105);
  ex.insert(2, 3, 33);
  ex.erase(3, 7);
  b.at(0).mark_aborted();
  b.at(1).mark_aborted();

  core::spec_manager sm(*db);
  std::array<core::exec_logs*, 1> logs{&ex.log};
  const auto st = sm.recover(b, logs);

  EXPECT_TRUE(st.full_redo);
  EXPECT_EQ(st.reexecuted, 4u);
  EXPECT_FALSE(b.at(1).aborted());
  EXPECT_EQ(value_of(*db, 1), 100u);
  EXPECT_EQ(value_of(*db, 2), 105u);
  EXPECT_EQ(value_of(*db, 3), 33u);
  EXPECT_EQ(value_of(*db, 6), 66u);
  EXPECT_EQ(db->at(0).lookup(7), storage::kNoRow);
  // Slots 7 (t0's insert), 3 and 6 were each freed once, so the replay's
  // two inserts took two of them and the third stays free.
  EXPECT_EQ(db->at(0).allocated_rows(), db->at(0).live_rows());
  EXPECT_NE(db->at(0).allocate_row(), db->at(0).allocate_row());
  EXPECT_EQ(db->state_hash(), serial_hash(b));
}

TEST(SpecManager, CountsRecordsSplitAcrossLogs) {
  auto db = make_db();
  txn::batch b;
  add_txn(b, {frag(0, kAbortIfAux, 1, 1), frag(1, kAdd, 1, 10)});
  add_txn(b, {frag(0, kAdd, 1, 1)});
  add_txn(b, {frag(0, kAdd, 2, 1)});
  b.validate();

  // Key 1's undo entries land in two logs: the routing invariant broke.
  spec_exec ex0{db->at(0), {}};
  spec_exec ex1{db->at(0), {}};
  ex0.update(0, 1, 110);
  ex1.update(1, 1, 111);
  ex1.update(2, 2, 101);
  b.at(0).mark_aborted();

  core::spec_manager sm(*db);
  std::array<core::exec_logs*, 2> logs{&ex0.log, &ex1.log};
  EXPECT_EQ(sm.recover(b, logs).split_records, 1u);
}

// --- inplace_host over a kept undo log frees each slot once -----------------

TEST(InplaceHost, KeptLogInsertRollbackFreesItsSlotOnce) {
  for (const bool unwind : {false, true}) {
    auto db = make_db();
    auto& tab = db->at(0);
    core::undo_log kept;
    proto::inplace_host host(*db, nullptr, &kept);
    txn::txn_desc t;
    host.begin_txn();
    const auto f = frag(0, kInsert, 9, 99);
    ASSERT_FALSE(host.insert_row(f, t).empty());
    host.rollback_txn();
    EXPECT_EQ(tab.lookup(9), storage::kNoRow);
    EXPECT_EQ(kept.size(), 0u);  // the rolled-back insert left no entry
    if (unwind) kept.rollback_to(*db, 0);
    EXPECT_EQ(tab.allocated_rows(), tab.live_rows()) << "unwind=" << unwind;
    // Freed exactly once: two allocations get two distinct slots.
    EXPECT_NE(tab.allocate_row(), tab.allocate_row()) << "unwind=" << unwind;
  }
}

TEST(InplaceHost, UnwindingAnEraseRollbackKeepsTheSlotAllocated) {
  auto db = make_db();
  auto& tab = db->at(0);
  const auto rid = tab.lookup(1);
  core::undo_log kept;
  proto::inplace_host host(*db, nullptr, &kept);
  txn::txn_desc t;
  host.begin_txn();
  txn::fragment f = frag(0, kAdd, 1);
  f.kind = txn::op_kind::erase;
  ASSERT_TRUE(host.erase_row(f, t));
  host.rollback_txn();
  kept.rollback_to(*db, 0);
  EXPECT_EQ(tab.lookup(1), rid);
  EXPECT_EQ(tab.allocated_rows(), 2u);
  EXPECT_NE(tab.allocate_row(), rid);  // not on the free list
}

// A re-run insert rolls back and frees its slot at once; a later committed
// insert in the same kept log reuses the slot. Unwinding the log then frees
// that slot exactly once and restores the pre-pass state.
TEST(InplaceHost, KeptLogReusesARolledBackSlotAndUnwindsCleanly) {
  auto db = make_db();
  auto& tab = db->at(0);
  const auto before = db->state_hash();
  core::undo_log kept;
  proto::inplace_host host(*db, nullptr, &kept);
  txn::txn_desc t;

  host.begin_txn();  // committed re-run: key 2 = 7
  storage::write_u64(host.update_row(frag(0, kAdd, 2), t), 0, 7);
  const std::size_t image_bytes = kept.images.size();
  EXPECT_GT(image_bytes, 0u);

  host.begin_txn();  // aborted re-run: key 1 = 111, insert key 8
  storage::write_u64(host.update_row(frag(0, kAdd, 1), t), 0, 111);
  ASSERT_FALSE(host.insert_row(frag(1, kInsert, 8), t).empty());
  const auto aborted_slot = tab.lookup(8);
  EXPECT_EQ(kept.images.size(), 2 * image_bytes);
  host.rollback_txn();
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.images.size(), image_bytes);  // its before-image dropped
  EXPECT_EQ(value_of(*db, 1), 100u);
  EXPECT_EQ(tab.lookup(8), storage::kNoRow);

  host.begin_txn();  // committed re-run: insert key 9 into the freed slot
  ASSERT_FALSE(host.insert_row(frag(0, kInsert, 9), t).empty());
  EXPECT_EQ(tab.lookup(9), aborted_slot);
  EXPECT_EQ(kept.size(), 2u);

  kept.rollback_to(*db, 0);
  EXPECT_EQ(kept.size(), 0u);
  EXPECT_TRUE(kept.images.empty());
  EXPECT_EQ(value_of(*db, 2), 100u);
  EXPECT_EQ(db->state_hash(), before);
  EXPECT_EQ(tab.allocated_rows(), tab.live_rows());
  EXPECT_NE(tab.allocate_row(), tab.allocate_row());
}

// --- end to end --------------------------------------------------------------

#if defined(QUECC_OBS_COMPILED_OUT)
#define OBS_SKIP_IF_COMPILED_OUT() \
  GTEST_SKIP() << "observability compiled out"
#else
#define OBS_SKIP_IF_COMPILED_OUT() (void)0
#endif

using testutil::counter;

std::uint64_t histogram_count(const std::string& name) {
  for (const auto& [n, h] : obs::snapshot_metrics().histograms) {
    if (n == name) return h.count();
  }
  return 0;
}

TEST(SpecRecovery, BankEscalatesAndMatchesSerial) {
  OBS_SKIP_IF_COMPILED_OUT();
  wl::bank w(wl::bank_config{});
  auto db = testutil::make_loaded_db(w);
  auto db_serial = db->clone();
  common::rng r(20);
  std::vector<txn::batch> batches;
  for (int i = 0; i < 6; ++i) batches.push_back(w.make_batch(r, 4096, i));

  const auto redo0 = counter("spec.full_redo_total");
  const auto split0 = counter("spec.split_records_total");
  {
    config cfg;
    cfg.execution = exec_model::speculative;
    core::quecc_engine eng(*db, cfg);
    common::run_metrics m;
    for (auto& b : batches) eng.run_batch(b, m);
  }
  EXPECT_GT(counter("spec.full_redo_total"), redo0);
  EXPECT_EQ(counter("spec.split_records_total"), split0);
  for (auto& b : batches) testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db->state_hash(), db_serial->state_hash());
}

/// TPC-C decides its only logic abort, the ITEM check, at plan time, since
/// ITEM is replicated. Tests of run-time recovery call this after `load`:
/// with ITEM no longer replicated the check runs in the executors, so its
/// aborts reach speculative recovery.
void decide_item_checks_at_run_time(storage::database& db) {
  db.by_name("item").set_replicated(false);
}

wl::tpcc_config full_mix_cfg() {
  wl::tpcc_config w;
  w.warehouses = 2;
  w.partitions = 4;
  w.initial_orders_per_district = 40;
  w.order_headroom_per_district = 400;
  w.scan_profiles = true;
  w.invalid_item_ratio = 0.05;
  return w;
}

struct invariant_case {
  const char* name;
  /// Runs speculatively with logic aborts; returns false when the run's
  /// state is not comparable with serial (read-committed).
  std::function<bool(storage::database& db, storage::database& serial)> run;
};

class OneLogPerRecord : public testing::TestWithParam<invariant_case> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, OneLogPerRecord,
    testing::Values(
        invariant_case{
            "read_committed_tpcc",
            [](storage::database& db, storage::database&) {
              wl::tpcc w(full_mix_cfg());
              w.load(db);
              decide_item_checks_at_run_time(db);
              common::rng r(5);
              config cfg;
              cfg.iso = isolation::read_committed;
              core::quecc_engine eng(db, cfg);
              common::run_metrics m;
              for (int i = 0; i < 3; ++i) {
                auto b = w.make_batch(r, 512, i);
                eng.run_batch(b, m);
              }
              return false;
            }},
        invariant_case{
            "all_parts_scans_ycsb",
            [](storage::database& db, storage::database& serial) {
              wl::ycsb_config wc;
              wc.table_size = 4096;
              wc.zipf_theta = 0.6;
              wc.read_ratio = 0.4;
              wc.scan_ratio = 0.3;
              wc.scan_len = 96;
              wc.abort_ratio = 0.05;
              wl::ycsb w(wc);
              w.load(db);
              w.load(serial);
              common::rng r(17);
              std::vector<txn::batch> batches;
              for (int i = 0; i < 3; ++i) {
                batches.push_back(w.make_batch(r, 512, i));
              }
              config cfg;
              cfg.executor_threads = 4;
              {
                core::quecc_engine eng(db, cfg);
                common::run_metrics m;
                for (auto& b : batches) eng.run_batch(b, m);
              }
              for (auto& b : batches) testutil::replay_in_seq_order(serial, b);
              return true;
            }},
        invariant_case{
            "dist_quecc_two_nodes_tpcc",
            [](storage::database& db, storage::database& serial) {
              wl::tpcc w(full_mix_cfg());
              w.load(db);
              w.load(serial);
              decide_item_checks_at_run_time(db);
              common::rng r(59);
              std::vector<txn::batch> batches;
              for (int i = 0; i < 3; ++i) {
                batches.push_back(w.make_batch(r, 512, i));
              }
              config cfg;
              cfg.nodes = 2;
              cfg.planner_threads = 1;
              cfg.executor_threads = 2;
              cfg.net_latency_micros = 20;
              {
                dist::dist_quecc_engine eng(db, cfg);
                common::run_metrics m;
                for (auto& b : batches) eng.run_batch(b, m);
              }
              for (auto& b : batches) testutil::replay_in_seq_order(serial, b);
              return true;
            }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(OneLogPerRecord, UndoEntriesOfARecordShareOneExecutorLog) {
  OBS_SKIP_IF_COMPILED_OUT();
  const auto split0 = counter("spec.split_records_total");
  const auto indexed0 = histogram_count("spec.index_nanos");
  storage::database db, serial;
  const bool comparable = GetParam().run(db, serial);
  // The index was built (logic aborts happened) and checked every record.
  EXPECT_GT(histogram_count("spec.index_nanos"), indexed0);
  EXPECT_EQ(counter("spec.split_records_total"), split0);
  if (comparable) {
    EXPECT_EQ(db.state_hash(), serial.state_hash());
  }
}

class SlotReuse : public testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Depths, SlotReuse, testing::Values(1u, 2u),
                         [](const auto& info) {
                           // Built with += : gcc 12 draws a -Wrestrict
                           // false positive from "D" + std::string.
                           std::string name = "D";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST_P(SlotReuse, RolledBackInsertsFreeTheirSlots) {
  wl::tpcc w(full_mix_cfg());
  auto db = testutil::make_loaded_db(w);
  decide_item_checks_at_run_time(*db);
  auto db_serial = db->clone();
  common::rng r(41);
  std::vector<txn::batch> batches;
  for (int i = 0; i < 4; ++i) batches.push_back(w.make_batch(r, 512, i));
  std::uint32_t logic_aborts = 0;
  {
    config cfg;
    cfg.pipeline_depth = GetParam();
    cfg.execution = exec_model::speculative;
    core::quecc_engine eng(*db, cfg);
    common::run_metrics m;
    for (auto& b : batches) {
      eng.run_batch(b, m);
      logic_aborts += eng.last_recovery().logic_aborts;
    }
  }
  ASSERT_GT(logic_aborts, 0u);
  for (auto& b : batches) testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db->state_hash(), db_serial->state_hash());
  for (const char* name : {"orders", "new_order", "order_line"}) {
    const auto& t = db->by_name(name);
    const auto& ts = db_serial->by_name(name);
    for (part_id_t s = 0; s < t.shard_count(); ++s) {
      // Delivery erases NEW-ORDER rows; erased slots stay allocated, in
      // the serial run too.
      EXPECT_EQ(t.allocated_rows_in(s) - t.live_rows_in(s),
                ts.allocated_rows_in(s) - ts.live_rows_in(s))
          << name << " shard " << s;
      if (std::string(name) != "new_order") {
        EXPECT_EQ(t.allocated_rows_in(s), t.live_rows_in(s))
            << name << " shard " << s;
      }
    }
  }
}

// --- plan-time abort checks --------------------------------------------------

TEST(PlanTimeChecks, PlannerDecidesItemChecksExactlyAsSerialDoes) {
  wl::tpcc_config wc = full_mix_cfg();
  wc.new_order_ratio = 1;
  wc.payment_ratio = wc.order_status_ratio = wc.delivery_ratio =
      wc.stock_level_ratio = 0;
  wc.invalid_item_ratio = 0.3;
  wl::tpcc w(wc);
  auto db = testutil::make_loaded_db(w);
  auto db_serial = db->clone();
  common::rng r(3);
  auto b = w.make_batch(r, 256, 0);
  const table_id_t item = db->by_name("item").id();

  config cfg;
  core::plan_output out;
  std::uint64_t planned = 0;
  for (worker_id_t p = 0; p < cfg.planner_threads; ++p) {
    core::planner(p, cfg, *db).plan(b, out);
    planned += out.planned_frags;
  }
  std::vector<bool> aborted;
  std::uint64_t expected = 0;
  for (const auto& tp : b) {
    const txn::txn_desc& t = *tp;
    aborted.push_back(t.aborted());
    if (t.aborted()) {
      EXPECT_TRUE(t.aborted_at_plan()) << "seq " << t.seq;
      continue;  // a doomed NewOrder plans no fragment
    }
    // Every check passed: its price slot is produced and nothing waits on
    // it.
    std::uint32_t checks = 0;
    for (const auto& f : t.frags) {
      if (f.table != item) continue;
      ++checks;
      EXPECT_TRUE(t.inputs_ready(1ull << f.output_slot)) << "seq " << t.seq;
    }
    EXPECT_EQ(t.pending_abortables.load(), 0u) << "seq " << t.seq;
    expected += t.frags.size() - checks;
  }
  EXPECT_EQ(planned, expected);

  // The serial run aborts exactly the transactions the planner aborted.
  testutil::replay_in_seq_order(*db_serial, b);
  std::size_t doomed = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.at(i).aborted(), aborted[i]) << "seq " << i;
    doomed += aborted[i] ? 1 : 0;
  }
  EXPECT_GT(doomed, 0u);
  EXPECT_LT(doomed, b.size());
}

}  // namespace
}  // namespace quecc
