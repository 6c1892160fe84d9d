// Unit tests: planner and executor mechanics in isolation — queue routing
// invariants, priority order, read-queue eligibility, and the executor's
// parking/skip behaviour, which logs it writes, and that its lookahead
// prefetch is only a hint.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <thread>

#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "storage/dual_version.hpp"
#include "test_util.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using core::frag_entry;
using core::plan_output;
using core::planner;

wl::ycsb make_workload(part_id_t parts = 4, double read_ratio = 0.5) {
  wl::ycsb_config cfg;
  cfg.table_size = 4096;
  cfg.partitions = parts;
  cfg.read_ratio = read_ratio;
  return wl::ycsb(cfg);
}

common::config engine_cfg(worker_id_t p, worker_id_t e) {
  common::config cfg;
  cfg.planner_threads = p;
  cfg.executor_threads = e;
  return cfg;
}

TEST(Planner, EveryFragmentRoutedExactlyOnce) {
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  common::rng r(1);
  auto b = w.make_batch(r, 100);

  const auto cfg = engine_cfg(2, 3);
  std::size_t routed = 0, expected = 0;
  for (const auto& t : b) expected += t->frags.size();
  for (worker_id_t p = 0; p < 2; ++p) {
    planner pl(p, cfg, *db);
    plan_output out;
    pl.plan(b, out);
    for (const auto& q : out.conflict) routed += q.size();
    for (const auto& q : out.reads) routed += q.size();
    EXPECT_EQ(out.planned_frags,
              std::accumulate(out.conflict.begin(), out.conflict.end(),
                              std::size_t{0},
                              [](std::size_t acc, const auto& q) {
                                return acc + q.size();
                              }) +
                  std::accumulate(out.reads.begin(), out.reads.end(),
                                  std::size_t{0},
                                  [](std::size_t acc, const auto& q) {
                                    return acc + q.size();
                                  }));
  }
  EXPECT_EQ(routed, expected);
}

TEST(Planner, SameRecordAlwaysSameExecutor) {
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  common::rng r(2);
  auto b = w.make_batch(r, 300);

  const auto cfg = engine_cfg(1, 3);
  planner pl(0, cfg, *db);
  plan_output out;
  pl.plan(b, out);

  // Conflict dependencies require: every fragment of a given (table, key)
  // lands in the same executor's queue.
  std::map<std::pair<table_id_t, key_t>, std::size_t> home;
  for (std::size_t e = 0; e < out.conflict.size(); ++e) {
    for (const frag_entry& fe : out.conflict[e]) {
      const auto rec = std::make_pair(fe.f->table, fe.f->key);
      auto [it, fresh] = home.emplace(rec, e);
      if (!fresh) {
        EXPECT_EQ(it->second, e) << "record split across queues";
      }
    }
  }
}

TEST(Planner, QueueOrderFollowsSequenceOrder) {
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  common::rng r(3);
  auto b = w.make_batch(r, 200);

  const auto cfg = engine_cfg(1, 2);
  planner pl(0, cfg, *db);
  plan_output out;
  pl.plan(b, out);

  for (const auto& q : out.conflict) {
    seq_t last = 0;
    for (const frag_entry& fe : q) {
      EXPECT_GE(fe.t->seq, last);  // FIFO = batch order per queue
      last = fe.t->seq;
    }
  }
}

TEST(Planner, ContiguousSlicesCoverBatch) {
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  common::rng r(4);
  auto b = w.make_batch(r, 100);

  const auto cfg = engine_cfg(3, 2);
  std::vector<std::uint8_t> seen(b.size(), 0);
  for (worker_id_t p = 0; p < 3; ++p) {
    planner pl(p, cfg, *db);
    plan_output out;
    pl.plan(b, out);
    for (const auto& q : out.conflict) {
      for (const frag_entry& fe : q) seen[fe.t->seq] = 1;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "txn " << i << " planned by nobody";
  }
}

TEST(Planner, PlanningDefersIndexResolutionAtEveryDepth) {
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  common::rng r(5);
  auto b = w.make_batch(r, 50);

  // Planning may overlap the previous batch's execution, which mutates the
  // index — lookups defer to the executors' resolve() and planning reads no
  // state execution writes, at depth 1 as well.
  for (std::uint32_t depth : {1u, 2u}) {
    auto cfg = engine_cfg(1, 1);
    cfg.pipeline_depth = depth;
    planner pl(0, cfg, *db);
    plan_output out;
    pl.plan(b, out);
    std::size_t frags = 0;
    for (const auto& t : b) {
      for (const auto& f : t->frags) {
        EXPECT_EQ(f.rid, storage::kNoRow) << "depth=" << depth;
        ++frags;
      }
    }
    EXPECT_GT(frags, 0u);
  }
}

TEST(Planner, ReadCommittedSplitsPureReads) {
  auto w = make_workload(4, /*read_ratio=*/0.5);
  auto db = testutil::make_loaded_db(w);
  common::rng r(6);
  auto b = w.make_batch(r, 200);

  auto cfg = engine_cfg(1, 2);
  cfg.iso = common::isolation::read_committed;
  planner pl(0, cfg, *db);
  plan_output out;
  pl.plan(b, out);

  std::size_t read_q = 0, conflict_reads = 0, conflict_writes = 0;
  for (const auto& q : out.reads) {
    read_q += q.size();
    for (const frag_entry& fe : q) {
      EXPECT_EQ(fe.f->kind, txn::op_kind::read);
      EXPECT_FALSE(fe.f->abortable);
    }
  }
  for (const auto& q : out.conflict) {
    for (const frag_entry& fe : q) {
      (fe.f->kind == txn::op_kind::read ? conflict_reads : conflict_writes) +=
          1;
    }
  }
  EXPECT_GT(read_q, 0u);
  EXPECT_GT(conflict_writes, 0u);
}

TEST(Planner, DependentReadsStayInConflictQueues) {
  // A read whose output feeds a write must not move to the read queues
  // (liveness: conflict executors never wait on unclaimed read queues).
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wcfg.dependent_ops = true;
  wcfg.read_ratio = 0.5;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  common::rng r(7);
  auto b = w.make_batch(r, 200);

  auto cfg = engine_cfg(1, 2);
  cfg.iso = common::isolation::read_committed;
  planner pl(0, cfg, *db);
  plan_output out;
  pl.plan(b, out);

  for (const auto& q : out.reads) {
    for (const frag_entry& fe : q) {
      // If this read produced a slot, no later updating fragment of the
      // same txn may consume it.
      if (fe.f->output_slot == txn::kNoSlot) continue;
      for (const auto& g : fe.t->frags) {
        if (!g.updates_database()) continue;
        EXPECT_EQ(g.input_mask & (1ull << fe.f->output_slot), 0u)
            << "read feeding a writer escaped to a read queue";
      }
    }
  }
}

// --- executor behaviour through the engine ----------------------------------

TEST(Executor, SkipsAllFragmentsOfAbortedTxn) {
  // A txn whose first abortable fragment fires must leave every later
  // fragment without effect — verified via the state hash.
  wl::ycsb_config wcfg;
  wcfg.table_size = 128;
  wcfg.ops_per_txn = 6;
  wcfg.abort_ratio = 1.0;  // every txn doomed
  wcfg.read_ratio = 0.0;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  const auto before = db->state_hash();

  common::rng r(8);
  auto b = w.make_batch(r, 100);
  for (auto m : {common::exec_model::speculative,
                 common::exec_model::conservative}) {
    b.reset_runtime();
    auto cfg = engine_cfg(2, 2);
    cfg.execution = m;
    core::quecc_engine eng(*db, cfg);
    common::run_metrics metrics;
    eng.run_batch(b, metrics);
    EXPECT_EQ(metrics.aborted, 100u);
    EXPECT_EQ(db->state_hash(), before) << common::to_string(m);
  }
}

TEST(Executor, ExecTimeLookupForInBatchInserts) {
  // A fragment planned against a record that does not exist yet (created
  // by an earlier txn in the same batch) resolves at execution time.
  wl::ycsb_config wcfg;
  wcfg.table_size = 64;
  wcfg.ops_per_txn = 1;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  const txn::procedure* proc;
  {
    common::rng r(1);
    proc = w.make_txn(r)->proc;
  }

  const key_t fresh_key = 5000;  // beyond the loaded range

  static constexpr auto insert_logic =
      [](const txn::fragment& f, txn::txn_desc& t,
         txn::frag_host& h) -> txn::frag_status {
    auto row = h.insert_row(f, t);
    if (!row.empty()) storage::write_u64(row, 0, f.aux);
    return txn::frag_status::ok;
  };
  static const txn::procedure insert_proc("insert", +insert_logic, 1);

  auto inserter = std::make_unique<txn::txn_desc>();
  inserter->proc = &insert_proc;
  {
    txn::fragment f;
    f.table = 0;
    f.key = fresh_key;
    f.part = 0;
    f.kind = txn::op_kind::insert;
    f.aux = 4242;
    inserter->frags.push_back(f);
  }
  auto reader = std::make_unique<txn::txn_desc>();
  reader->proc = proc;
  {
    txn::fragment f;
    f.table = 0;
    f.key = fresh_key;
    f.part = 0;
    f.kind = txn::op_kind::read;
    f.logic = wl::ycsb::op_read;
    f.output_slot = 0;
    reader->frags.push_back(f);
  }

  txn::batch b;
  b.add(std::move(inserter));
  txn::txn_desc& rd = b.add(std::move(reader));
  b.validate();

  core::quecc_engine eng(*db, engine_cfg(1, 2));
  common::run_metrics m;
  eng.run_batch(b, m);
  EXPECT_EQ(m.committed, 2u);
  EXPECT_EQ(rd.slot_value(0), 4242u);  // saw the same-batch insert
}

namespace erase_proc {
txn::frag_status run(const txn::fragment& f, txn::txn_desc& t,
                     txn::frag_host& h) {
  h.erase_row(f, t);
  return txn::frag_status::ok;
}
}  // namespace erase_proc

TEST(Executor, EraseThenReadMisses) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 64;
  wcfg.ops_per_txn = 1;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);

  txn::procedure proc("erase", &erase_proc::run, 1);
  auto eraser = std::make_unique<txn::txn_desc>();
  eraser->proc = &proc;
  {
    txn::fragment f;
    f.table = 0;
    f.key = 7;
    f.part = 3;  // ycsb home partition of key 7 (P=4)
    f.kind = txn::op_kind::erase;
    eraser->frags.push_back(f);
  }
  txn::batch b;
  b.add(std::move(eraser));
  b.validate();

  core::quecc_engine eng(*db, engine_cfg(1, 1));
  common::run_metrics m;
  eng.run_batch(b, m);
  EXPECT_EQ(db->at(0).lookup(7, 3), storage::kNoRow);
  EXPECT_EQ(db->at(0).live_rows(), 63u);
}

// --- parking, through core::executor with hand-built queues ----------------

namespace park_probe {

// The labels (fragment aux) of the fragments the probe logic ran, in order.
// Written by the executor thread; the test thread polls it while the
// executor runs, so every cell is atomic.
std::array<std::atomic<std::uint64_t>, 8> ran_log;
std::atomic<std::size_t> ran_count{0};

void reset() { ran_count.store(0); }

txn::frag_status run(const txn::fragment& f, txn::txn_desc&,
                     txn::frag_host&) {
  const std::size_t i = ran_count.load(std::memory_order_relaxed);
  ran_log[i].store(f.aux, std::memory_order_relaxed);
  ran_count.store(i + 1, std::memory_order_release);
  return txn::frag_status::ok;
}

std::vector<std::uint64_t> ran() {
  std::vector<std::uint64_t> out;
  const std::size_t n = ran_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) out.push_back(ran_log[i].load());
  return out;
}

/// Wait at most 5 s for the fragment labelled `label` to run.
bool wait_ran(std::uint64_t label) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const auto l : ran()) {
      if (l == label) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

txn::fragment frag(txn::op_kind kind, std::uint16_t idx, std::uint64_t label) {
  txn::fragment f;
  f.kind = kind;
  f.idx = idx;
  f.aux = label;
  return f;
}

std::unique_ptr<txn::txn_desc> make_txn(const txn::procedure& proc,
                                        std::vector<txn::fragment> frags) {
  auto t = std::make_unique<txn::txn_desc>();
  t->proc = &proc;
  t->frags = std::move(frags);
  t->resize_slots(proc.slot_count());
  t->reset_runtime();
  return t;
}

/// A transaction of one update with nothing to wait for.
std::unique_ptr<txn::txn_desc> update_txn(const txn::procedure& proc,
                                          std::uint64_t label) {
  return make_txn(proc, {frag(txn::op_kind::update, 0, label)});
}

}  // namespace park_probe

TEST(Executor, ParksBlockedEntryAndKeepsPerRecordOrder) {
  // Queue: A consumes a slot nobody has produced yet, B has another key,
  // C has A's key. The executor must park A, run B, and keep C behind A.
  using txn::op_kind;
  park_probe::reset();
  const txn::procedure proc("probe", &park_probe::run, 1);
  constexpr std::uint64_t kA = 1, kB = 2, kC = 3;
  constexpr std::uint32_t kKeyAC = 7, kKeyB = 9;

  // A's producer is fragment 0, never queued: the test thread produces.
  auto ta = park_probe::make_txn(
      proc, {park_probe::frag(op_kind::read, 0, 0),
             park_probe::frag(op_kind::update, 1, kA)});
  ta->frags[0].output_slot = 0;
  ta->frags[1].input_mask = 1;
  auto tb = park_probe::update_txn(proc, kB);
  auto tc = park_probe::update_txn(proc, kC);

  core::frag_queue q;
  q.push({ta.get(), &ta->frags[1], 0, kKeyAC});
  q.push({tb.get(), &tb->frags[0], 0, kKeyB});
  q.push({tc.get(), &tc->frags[0], 0, kKeyAC});
  const core::frag_queue* queues[] = {&q};

  storage::database db;
  const common::config cfg;
  core::executor ex(0, cfg, db, nullptr);
  std::vector<std::uint64_t> stamps(1);  // unbatched txns all have seq 0
  ex.begin_batch(0, stamps);
  std::thread worker([&] { ex.run_conflict_queues(queues); });
  // B can only run ahead of A if A parked. Produce A's input either way,
  // so a failure here never hangs the test.
  if (!park_probe::wait_ran(kB)) {
    ADD_FAILURE() << "B did not run while A waited";
  }
  ta->produce(0, 42);
  worker.join();

  EXPECT_EQ(park_probe::ran(), (std::vector<std::uint64_t>{kB, kA, kC}));
}

TEST(Executor, ConservativeUpdateParksOnPendingAbortable) {
  // D updates while its transaction's abortable fragment (never queued:
  // the test thread resolves it) is pending; E has another key, F has D's.
  // Resolved as commit, D runs before F; resolved as abort, D is skipped.
  using txn::op_kind;
  const txn::procedure proc("probe", &park_probe::run, 1);
  constexpr std::uint64_t kD = 4, kE = 5, kF = 6;
  constexpr std::uint32_t kKeyDF = 11, kKeyE = 13;
  for (const bool abort : {false, true}) {
    SCOPED_TRACE(abort ? "abort" : "commit");
    park_probe::reset();
    auto check = park_probe::frag(op_kind::read, 0, 0);
    check.abortable = true;
    auto td = park_probe::make_txn(
        proc, {check, park_probe::frag(op_kind::update, 1, kD)});
    auto te = park_probe::update_txn(proc, kE);
    auto tf = park_probe::update_txn(proc, kF);

    core::frag_queue q;
    q.push({td.get(), &td->frags[1], 0, kKeyDF});
    q.push({te.get(), &te->frags[0], 0, kKeyE});
    q.push({tf.get(), &tf->frags[0], 0, kKeyDF});
    const core::frag_queue* queues[] = {&q};

    storage::database db;
    common::config cfg;
    cfg.execution = common::exec_model::conservative;
    core::executor ex(0, cfg, db, nullptr);
    std::vector<std::uint64_t> stamps(1);  // unbatched txns all have seq 0
    ex.begin_batch(1, stamps);
    std::thread worker([&] { ex.run_conflict_queues(queues); });
    if (!park_probe::wait_ran(kE)) {
      ADD_FAILURE() << "E did not run while D waited";
    }
    // As the executor resolves an abortable: abort decision first.
    if (abort) td->mark_aborted();
    td->pending_abortables.fetch_sub(1, std::memory_order_acq_rel);
    worker.join();

    const auto want = abort ? std::vector<std::uint64_t>{kE, kF}
                            : std::vector<std::uint64_t>{kE, kD, kF};
    EXPECT_EQ(park_probe::ran(), want);
  }
}

// --- what the executor logs, through core::executor on planned queues ------

namespace log_probe {

/// A YCSB batch in which only the transaction at `abortable_at` (if any)
/// carries an abortable check; it passes, so nothing aborts. `carrier`
/// owns that transaction's procedure.
txn::batch make_batch(wl::ycsb& w, wl::ycsb& carrier, std::size_t n,
                      std::size_t abortable_at) {
  common::rng r(31);
  txn::batch b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i == abortable_at ? carrier.make_txn(r) : w.make_txn(r));
  }
  b.validate();
  return b;
}

struct run {
  std::uint32_t runtime_abortables = 0;
  std::size_t reads = 0;
  std::size_t undo = 0;
  std::size_t images = 0;  ///< undo entries that kept a before-image
  std::size_t updates = 0;
  std::vector<std::uint64_t> stamps;  ///< the executor's, by seq
};

/// Plans `b` with one planner for one executor and drains the queues on
/// this thread, passing the planner's count to begin_batch.
run execute(storage::database& db, txn::batch& b, common::exec_model m,
            common::isolation iso) {
  common::config cfg = engine_cfg(1, 1);
  cfg.execution = m;
  cfg.iso = iso;
  b.reset_runtime();
  plan_output out;
  planner(0, cfg, db).plan(b, out);
  std::unique_ptr<storage::dual_version_store> committed;
  if (iso == common::isolation::read_committed) {
    committed = std::make_unique<storage::dual_version_store>(db);
  }
  core::executor ex(0, cfg, db, committed.get());
  std::vector<std::uint64_t> stamps(b.size());
  ex.begin_batch(out.runtime_abortables, stamps);
  const core::frag_queue* conflict[] = {&out.conflict[0]};
  ex.run_conflict_queues(conflict);
  if (!out.reads.empty()) {
    const core::frag_queue* reads[] = {&out.reads[0]};
    std::atomic<std::size_t> cursor{0};
    ex.run_read_queues(reads, cursor);
  }
  run got;
  got.stamps = stamps;
  got.runtime_abortables = out.runtime_abortables;
  got.reads = ex.logs().reads.size();
  got.undo = ex.logs().undo.size();
  for (const auto& u : ex.logs().undo.entries) {
    if (u.len != 0) ++got.images;
  }
  for (const auto& t : b) {
    EXPECT_FALSE(t->aborted()) << "seq " << t->seq;
    for (const auto& f : t->frags) {
      if (f.kind == txn::op_kind::update) ++got.updates;
    }
  }
  return got;
}

}  // namespace log_probe

TEST(Executor, StampsEveryTransactionItFinishes) {
  // One executor drains one conflict queue in seq order, so each
  // transaction carries a stamp, and its monotone clock orders them.
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  auto b = log_probe::make_batch(w, w, 64, ~std::size_t{0});
  const std::uint64_t before = common::now_nanos();
  const auto got = log_probe::execute(*db, b, common::exec_model::speculative,
                                      common::isolation::serializable);
  const std::uint64_t after = common::now_nanos();
  ASSERT_EQ(got.stamps.size(), b.size());
  for (std::size_t i = 0; i < got.stamps.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_GE(got.stamps[i], before);
    EXPECT_LE(got.stamps[i], after);
    if (i > 0) {
      EXPECT_GE(got.stamps[i], got.stamps[i - 1]);
    }
  }
}

TEST(Executor, SkipsEveryLogWhenNothingCanAbortAtRunTime) {
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  auto b = log_probe::make_batch(w, w, 64, ~std::size_t{0});
  for (const auto m : {common::exec_model::speculative,
                       common::exec_model::conservative}) {
    SCOPED_TRACE(common::to_string(m));
    const auto got =
        log_probe::execute(*db, b, m, common::isolation::serializable);
    EXPECT_EQ(got.runtime_abortables, 0u);
    EXPECT_GT(got.updates, 0u);
    EXPECT_EQ(got.reads, 0u);
    EXPECT_EQ(got.undo, 0u);
  }
}

TEST(Executor, ReadCommittedLogsUndoEntriesWithoutImages) {
  // The RC publish list reads undo entries, so they stay; nothing reads
  // reads or before-images.
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  auto b = log_probe::make_batch(w, w, 64, ~std::size_t{0});
  for (const auto m : {common::exec_model::speculative,
                       common::exec_model::conservative}) {
    SCOPED_TRACE(common::to_string(m));
    const auto got =
        log_probe::execute(*db, b, m, common::isolation::read_committed);
    EXPECT_EQ(got.undo, got.updates);
    EXPECT_EQ(got.images, 0u);
    EXPECT_EQ(got.reads, 0u);
  }
}

TEST(Executor, OneRunTimeAbortableLogsReadsAndImagesForTheWholeBatch) {
  auto w = make_workload();
  wl::ycsb_config carrier_cfg = w.cfg();
  carrier_cfg.abort_ratio = 1e-12;  // carries the check; never doomed
  wl::ycsb carrier(carrier_cfg);
  auto db = testutil::make_loaded_db(w);
  for (const std::size_t at : {std::size_t{0}, std::size_t{40}}) {
    SCOPED_TRACE("abortable at " + std::to_string(at));
    auto b = log_probe::make_batch(w, carrier, 64, at);
    const auto spec =
        log_probe::execute(*db, b, common::exec_model::speculative,
                           common::isolation::serializable);
    EXPECT_EQ(spec.runtime_abortables, 1u);
    // Every point read is logged, the check included.
    std::size_t reads = 0;
    for (const auto& t : b) {
      for (const auto& f : t->frags) {
        if (f.kind == txn::op_kind::read) ++reads;
      }
    }
    EXPECT_EQ(spec.reads, reads);
    EXPECT_EQ(spec.undo, spec.updates);
    EXPECT_EQ(spec.images, spec.updates);
    // Conservative execution never rolls back: still nothing to log.
    const auto cons =
        log_probe::execute(*db, b, common::exec_model::conservative,
                           common::isolation::serializable);
    EXPECT_EQ(cons.runtime_abortables, 1u);
    EXPECT_EQ(cons.reads, 0u);
    EXPECT_EQ(cons.undo, 0u);
  }
}

// --- lookahead prefetch, through core::executor with hand-built queues ------
//
// The executor prefetches fragments, transactions and index buckets up to
// 16 entries ahead of the one it runs (core/executor.hpp). A prefetch is a
// hint only: these queues put an erase or an insert of a key a few entries
// before reads and updates of it, inside every lookahead window, and check
// that every entry sees what the serial run in queue order sees.

namespace lookahead {

constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
enum logic : std::uint16_t { read, rmw, insert, erase, scan };

/// One-fragment probe transactions; each produces slot 0: the FIELD0 a
/// read saw, the value an rmw wrote, the value an insert wrote, 1/0 for
/// whether an erase found its row, the FIELD0 sum of a scan — kAbsent
/// where the row was missing.
txn::frag_status run(const txn::fragment& f, txn::txn_desc& t,
                     txn::frag_host& h) {
  std::uint64_t v = kAbsent;
  switch (static_cast<logic>(f.logic)) {
    case read: {
      const auto row = h.read_row(f, t);
      if (!row.empty()) v = storage::read_u64(row, 0);
      break;
    }
    case rmw: {
      const auto row = h.update_row(f, t);
      if (!row.empty()) {
        v = storage::read_u64(row, 0) + f.aux;
        storage::write_u64(row, 0, v);
      }
      break;
    }
    case insert: {
      const auto row = h.insert_row(f, t);
      if (!row.empty()) {
        v = f.aux;
        storage::write_u64(row, 0, v);
      }
      break;
    }
    case erase:
      v = h.erase_row(f, t) ? 1 : 0;
      break;
    case scan: {
      std::uint64_t sum = 0;
      h.scan_rows(
          f, t,
          [](void* ctx, key_t, std::span<const std::byte> row) {
            *static_cast<std::uint64_t*>(ctx) += storage::read_u64(row, 0);
            return true;
          },
          &sum);
      v = sum;
      break;
    }
  }
  t.produce(0, v);
  return txn::frag_status::ok;
}

const txn::procedure proc("lookahead", &run, 1);

constexpr key_t kLoaded = 64;  ///< keys [0, kLoaded) are loaded, FIELD0 = 100k

std::unique_ptr<storage::database> make_db(storage::index_kind k,
                                           part_id_t shards) {
  auto db = std::make_unique<storage::database>();
  storage::schema s({{"FIELD0", storage::col_type::u64, 8},
                     {"FIELD1", storage::col_type::u64, 8}});
  s.with_index(k);
  auto& tab = db->create_table("t", s, 4 * kLoaded, shards);
  for (key_t key = 0; key < kLoaded; ++key) {
    std::array<std::byte, 8> row{};
    std::uint64_t v = 100 * key;
    std::memcpy(row.data(), &v, sizeof v);
    tab.insert(key, row, static_cast<part_id_t>(key % shards));
  }
  return db;
}

/// One step of a queue: logic, key, operand (scans: the exclusive upper key).
struct step {
  logic op;
  key_t key;
  std::uint64_t aux = 0;
};

/// `n` reads of loaded keys from `from` on: fillers that put the steps
/// after them past every lookahead distance.
std::vector<step> fillers(key_t from, std::size_t n) {
  std::vector<step> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({read, static_cast<key_t>((from + i) % kLoaded)});
  }
  return out;
}

std::vector<step> concat(std::initializer_list<std::vector<step>> parts) {
  std::vector<step> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

struct txns {
  std::vector<std::unique_ptr<txn::txn_desc>> all;
  core::frag_queue queue;
};

txns build(const std::vector<step>& steps, part_id_t shards) {
  txns out;
  for (const step& s : steps) {
    txn::fragment f;
    f.table = 0;
    f.key = s.key;
    f.part = static_cast<part_id_t>(s.key % shards);
    f.logic = s.op;
    f.output_slot = 0;
    if (s.op == scan) {
      f.kind = txn::op_kind::scan;
      f.key_hi = s.aux;
    } else {
      f.kind = s.op == read     ? txn::op_kind::read
               : s.op == rmw    ? txn::op_kind::update
               : s.op == insert ? txn::op_kind::insert
                                : txn::op_kind::erase;
      f.aux = s.aux;
    }
    out.all.push_back(park_probe::make_txn(proc, {f}));
    auto& t = *out.all.back();
    // Conflict key: the record (scans: the table's one shard), as routing
    // gives it.
    const auto ckey =
        static_cast<std::uint32_t>(s.op == scan ? ~key_t{0} : s.key);
    out.queue.push({&t, &t.frags[0], f.part, ckey});
  }
  return out;
}

struct outcome {
  std::vector<std::uint64_t> values;  ///< each transaction's slot 0
  std::uint64_t state_hash = 0;
};

/// Drain `steps` as one conflict queue of one executor.
outcome run_executor(storage::database& db, const std::vector<step>& steps,
                     part_id_t shards) {
  auto q = build(steps, shards);
  const common::config cfg;
  core::executor ex(0, cfg, db, nullptr);
  std::vector<std::uint64_t> stamps(1);  // unbatched txns all have seq 0
  ex.begin_batch(0, stamps);
  const core::frag_queue* queues[] = {&q.queue};
  ex.run_conflict_queues(queues);
  outcome out;
  for (const auto& t : q.all) out.values.push_back(t->slot_value(0));
  out.state_hash = db.state_hash();
  return out;
}

/// The same steps, run serially in queue order.
outcome run_serial(storage::database& db, const std::vector<step>& steps,
                   part_id_t shards) {
  auto q = build(steps, shards);
  proto::inplace_host host(db);
  outcome out;
  for (const auto& t : q.all) {
    host.begin_txn();
    EXPECT_TRUE(proto::run_txn_serially(*t, host));
    out.values.push_back(t->slot_value(0));
  }
  out.state_hash = db.state_hash();
  return out;
}

/// Run `steps` through the executor and serially on equal databases and
/// expect the same values and state; returns the executor's values.
std::vector<std::uint64_t> expect_serial(storage::index_kind k,
                                         part_id_t shards,
                                         const std::vector<step>& steps) {
  auto exec_db = make_db(k, shards);
  auto serial_db = make_db(k, shards);
  const auto got = run_executor(*exec_db, steps, shards);
  const auto want = run_serial(*serial_db, steps, shards);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.state_hash, want.state_hash);
  return got.values;
}

/// Key K erased at entry i; reads and rmws of K follow at i+1..i+4, so
/// every lookahead stage saw K's row before the erase ran. Then K is
/// inserted again and read back, and a fresh key is inserted and read.
std::vector<step> erase_insert_steps() {
  constexpr key_t K = 5, fresh = 1000;
  return concat({fillers(10, 20),
                 {{erase, K}, {read, K}, {rmw, K, 7}, {read, K}, {rmw, K, 3}},
                 fillers(30, 4),
                 {{insert, K, 555}, {read, K}, {rmw, K, 5}, {read, K}},
                 {{insert, fresh, 900}, {rmw, fresh, 1}, {read, fresh}},
                 fillers(40, 20)});
}

}  // namespace lookahead

TEST(ExecutorLookahead, EmptyAndShortQueues) {
  using namespace lookahead;
  // An empty queue, and queues shorter than every lookahead distance.
  for (const auto& steps : {std::vector<step>{},
                            std::vector<step>{{rmw, 3, 1}},
                            std::vector<step>{{rmw, 3, 1}, {read, 3}}}) {
    const auto got = expect_serial(storage::index_kind::hash, 2, steps);
    ASSERT_EQ(got.size(), steps.size());
    if (!got.empty()) {
      EXPECT_EQ(got[0], 301u);
    }
  }
}

TEST(ExecutorLookahead, EraseInsideTheWindowHidesTheRow) {
  using namespace lookahead;
  const auto steps = erase_insert_steps();
  const auto got = expect_serial(storage::index_kind::hash, 2, steps);
  // The erase, then four accesses of the erased key: no row.
  EXPECT_EQ(got[20], 1u);
  for (std::size_t i = 21; i < 25; ++i) EXPECT_EQ(got[i], kAbsent) << i;
}

TEST(ExecutorLookahead, InsertInsideTheWindowShowsTheNewRow) {
  using namespace lookahead;
  const auto steps = erase_insert_steps();
  const auto got = expect_serial(storage::index_kind::hash, 2, steps);
  // Re-insert of the erased key, then read, rmw, read of the new row.
  EXPECT_EQ((std::vector<std::uint64_t>(got.begin() + 29, got.begin() + 33)),
            (std::vector<std::uint64_t>{555, 555, 560, 560}));
  // A fresh key: insert, rmw, read.
  EXPECT_EQ((std::vector<std::uint64_t>(got.begin() + 33, got.begin() + 36)),
            (std::vector<std::uint64_t>{900, 901, 901}));
}

TEST(ExecutorLookahead, OrderedIndexTablePrefetchIsANoOp) {
  using namespace lookahead;
  // One shard, so a scan sees every row in both runs.
  auto steps = erase_insert_steps();
  steps.insert(steps.begin() + 22, {scan, 0, kLoaded});
  steps.push_back({scan, 0, 2000});
  const auto got = expect_serial(storage::index_kind::ordered, 1, steps);
  EXPECT_EQ(got[21], kAbsent);
  EXPECT_NE(got.back(), kAbsent);
}

TEST(ExecutorLookahead, ReadQueuesReadPreResolvedCommittedImages) {
  using namespace lookahead;
  constexpr part_id_t kShards = 2;
  auto db = make_db(storage::index_kind::hash, kShards);
  storage::dual_version_store committed(*db);
  // Working rows move on; the committed image keeps the loaded values.
  auto& tab = db->at(0);
  for (key_t key = 0; key < kLoaded; ++key) {
    const auto rid = tab.lookup(key, static_cast<part_id_t>(key % kShards));
    storage::write_u64(tab.row(rid), 0, 1);
  }
  // Loaded keys with their rid resolved, one absent key left unresolved.
  std::vector<step> steps = fillers(0, 40);
  steps.insert(steps.begin() + 20, {read, 5000});
  auto q = build(steps, kShards);
  for (const auto& t : q.all) {
    auto& f = t->frags[0];
    f.rid = tab.lookup(f.key, f.part);
  }
  common::config cfg;
  cfg.iso = common::isolation::read_committed;
  core::executor ex(0, cfg, *db, &committed);
  std::vector<std::uint64_t> stamps(1);  // unbatched txns all have seq 0
  ex.begin_batch(0, stamps);
  const core::frag_queue* queues[] = {&q.queue};
  std::atomic<std::size_t> cursor{0};
  ex.run_read_queues(queues, cursor);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::uint64_t want =
        steps[i].key < kLoaded ? 100 * steps[i].key : kAbsent;
    EXPECT_EQ(q.all[i]->slot_value(0), want) << i;
  }
}

TEST(Engine, PhaseStatspopulated) {
  auto w = make_workload();
  auto db = testutil::make_loaded_db(w);
  common::rng r(9);
  auto b = w.make_batch(r, 256);

  core::quecc_engine eng(*db, engine_cfg(2, 2));
  common::run_metrics m;
  eng.run_batch(b, m);
  const auto& ph = eng.last_phases();
  EXPECT_GT(ph.plan_seconds, 0.0);
  EXPECT_GT(ph.exec_seconds, 0.0);
  EXPECT_EQ(ph.planned_fragments, [&] {
    std::uint64_t n = 0;
    for (const auto& t : b) n += t->frags.size();
    return n;
  }());
  EXPECT_EQ(ph.queues, 4u);
}

}  // namespace
}  // namespace quecc
