// Integration + property tests for the queue-oriented engine (src/core):
// serial equivalence, determinism across thread counts and execution
// models, abort/recovery semantics, isolation levels.
#include <gtest/gtest.h>

#include "core/engine.hpp"
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

struct engine_params {
  worker_id_t planners;
  worker_id_t executors;
  exec_model exec;
};

std::string param_name(const testing::TestParamInfo<engine_params>& info) {
  // Built with += : gcc 12 draws a -Wrestrict false positive from
  // "P" + std::string.
  std::string name = "P";
  name += std::to_string(info.param.planners);
  name += "E";
  name += std::to_string(info.param.executors);
  name += info.param.exec == exec_model::speculative ? "_spec" : "_cons";
  return name;
}

config make_cfg(const engine_params& p) {
  config cfg;
  cfg.planner_threads = p.planners;
  cfg.executor_threads = p.executors;
  cfg.batch_size = 256;
  cfg.execution = p.exec;
  return cfg;
}

class QueccGrid : public testing::TestWithParam<engine_params> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, QueccGrid,
    testing::Values(engine_params{1, 1, exec_model::speculative},
                    engine_params{1, 2, exec_model::speculative},
                    engine_params{2, 1, exec_model::speculative},
                    engine_params{2, 2, exec_model::speculative},
                    engine_params{3, 2, exec_model::speculative},
                    engine_params{2, 4, exec_model::speculative},
                    engine_params{1, 1, exec_model::conservative},
                    engine_params{2, 2, exec_model::conservative},
                    engine_params{3, 3, exec_model::conservative}),
    param_name);

// --- YCSB: the engine's result equals serial execution in seq order -------
TEST_P(QueccGrid, YcsbMatchesSerialExecution) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wcfg.zipf_theta = 0.9;  // high contention stresses queue ordering
  wcfg.read_ratio = 0.5;
  auto w = wl::ycsb(wcfg);

  auto db_engine = testutil::make_loaded_db(w);
  auto db_serial = db_engine->clone();

  common::rng r(123);
  std::vector<txn::batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(w.make_batch(r, 256, i));

  core::quecc_engine eng(*db_engine, make_cfg(GetParam()));
  common::run_metrics m;
  for (auto& b : batches) eng.run_batch(b, m);
  EXPECT_EQ(m.committed, 3u * 256u);

  for (auto& b : batches) testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db_engine->state_hash(), db_serial->state_hash());
}

// --- YCSB with data dependencies across executors --------------------------
TEST_P(QueccGrid, DependentOpsMatchSerial) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wcfg.zipf_theta = 0.5;
  wcfg.read_ratio = 0.3;
  wcfg.dependent_ops = true;  // op i consumes op i-1's output slot
  auto w = wl::ycsb(wcfg);

  auto db_engine = testutil::make_loaded_db(w);
  auto db_serial = db_engine->clone();

  common::rng r(77);
  auto b = w.make_batch(r, 512);

  core::quecc_engine eng(*db_engine, make_cfg(GetParam()));
  common::run_metrics m;
  eng.run_batch(b, m);

  // Capture per-txn results before the serial replay overwrites them.
  const auto engine_results = testutil::result_fingerprints(b);
  testutil::replay_in_seq_order(*db_serial, b);
  const auto serial_results = testutil::result_fingerprints(b);

  EXPECT_EQ(db_engine->state_hash(), db_serial->state_hash());
  EXPECT_EQ(engine_results, serial_results);  // reads identical, not just state
}

// --- determinism: same batch, any thread count, same outcome ---------------
TEST_P(QueccGrid, DeterministicAcrossReruns) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wcfg.zipf_theta = 0.8;
  wcfg.abort_ratio = 0.05;
  auto w = wl::ycsb(wcfg);

  auto db1 = testutil::make_loaded_db(w);
  auto db2 = db1->clone();

  common::rng r(5);
  auto b = w.make_batch(r, 400);

  core::quecc_engine eng1(*db1, make_cfg(GetParam()));
  common::run_metrics m1;
  eng1.run_batch(b, m1);
  const auto results1 = testutil::result_fingerprints(b);
  const auto hash1 = db1->state_hash();

  b.reset_runtime();
  core::quecc_engine eng2(*db2, make_cfg(GetParam()));
  common::run_metrics m2;
  eng2.run_batch(b, m2);

  EXPECT_EQ(hash1, db2->state_hash());
  EXPECT_EQ(results1, testutil::result_fingerprints(b));
  EXPECT_EQ(m1.committed, m2.committed);
  EXPECT_EQ(m1.aborted, m2.aborted);
}

// --- aborts: deterministic, zero effects, recovery converges ---------------
TEST_P(QueccGrid, AbortedTxnsLeaveNoEffects) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 512;  // small table => plenty of speculation deps
  wcfg.zipf_theta = 0.9;
  wcfg.abort_ratio = 0.10;
  wcfg.read_ratio = 0.2;
  auto w = wl::ycsb(wcfg);

  auto db_engine = testutil::make_loaded_db(w);
  auto db_serial = db_engine->clone();

  common::rng r(99);
  auto b = w.make_batch(r, 512);

  core::quecc_engine eng(*db_engine, make_cfg(GetParam()));
  common::run_metrics m;
  eng.run_batch(b, m);

  EXPECT_GT(m.aborted, 0u);
  EXPECT_EQ(m.committed + m.aborted, 512u);

  testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db_engine->state_hash(), db_serial->state_hash());

  if (GetParam().exec == exec_model::conservative) {
    // Conservative execution never exposes dirty data: no cascades.
    EXPECT_EQ(eng.last_recovery().cascades, 0u);
  }
}

TEST(QueccEngine, SpeculativeCascadesHappenAndHeal) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 64;  // tiny: aborts poison many readers
  wcfg.zipf_theta = 0.0;
  wcfg.abort_ratio = 0.2;
  wcfg.read_ratio = 0.5;
  auto w = wl::ycsb(wcfg);

  auto db_engine = testutil::make_loaded_db(w);
  auto db_serial = db_engine->clone();

  common::rng r(2024);
  auto b = w.make_batch(r, 256);

  config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  cfg.execution = exec_model::speculative;
  core::quecc_engine eng(*db_engine, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);

  EXPECT_GT(eng.last_recovery().logic_aborts, 0u);
  EXPECT_GT(eng.last_recovery().reexecuted, 0u);

  testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db_engine->state_hash(), db_serial->state_hash());
}

// --- bank invariant ---------------------------------------------------------
TEST_P(QueccGrid, BankConservesMoney) {
  wl::bank_config wcfg;
  wcfg.accounts = 512;
  wcfg.max_transfer = 1500;  // often exceeds balance => aborts
  auto w = wl::bank(wcfg);

  auto db = testutil::make_loaded_db(w);
  const std::uint64_t expected = w.total_balance(*db);

  common::rng r(31);
  core::quecc_engine eng(*db, make_cfg(GetParam()));
  common::run_metrics m;
  for (int i = 0; i < 4; ++i) {
    auto b = w.make_batch(r, 256, i);
    eng.run_batch(b, m);
  }
  EXPECT_EQ(w.total_balance(*db), expected);
  EXPECT_GT(m.aborted, 0u);  // insufficient-funds aborts really fire
}

// --- TPC-C ------------------------------------------------------------------
TEST_P(QueccGrid, TpccMatchesSerialAndStaysConsistent) {
  wl::tpcc_config wcfg;
  wcfg.warehouses = 2;
  wcfg.initial_orders_per_district = 40;
  wcfg.order_headroom_per_district = 400;
  auto w = wl::tpcc(wcfg);

  auto db_engine = testutil::make_loaded_db(w);
  auto db_serial = db_engine->clone();

  common::rng r(7);
  std::vector<txn::batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(w.make_batch(r, 200, i));

  core::quecc_engine eng(*db_engine, make_cfg(GetParam()));
  common::run_metrics m;
  for (auto& b : batches) eng.run_batch(b, m);

  for (auto& b : batches) testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db_engine->state_hash(), db_serial->state_hash());

  std::string why;
  EXPECT_TRUE(w.check_consistency(*db_engine, &why)) << why;
}

TEST(QueccEngine, TpccDoomedNewOrdersAbort) {
  wl::tpcc_config wcfg;
  wcfg.warehouses = 1;
  wcfg.invalid_item_ratio = 0.5;  // half the NewOrders carry invalid items
  wcfg.payment_ratio = 0;
  wcfg.order_status_ratio = 0;
  wcfg.delivery_ratio = 0;
  wcfg.stock_level_ratio = 0;
  wcfg.initial_orders_per_district = 20;
  auto w = wl::tpcc(wcfg);

  auto db = testutil::make_loaded_db(w);
  common::rng r(8);
  auto b = w.make_batch(r, 200);

  config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  core::quecc_engine eng(*db, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);

  EXPECT_GT(m.aborted, 50u);
  EXPECT_GT(m.committed, 50u);
  std::string why;
  EXPECT_TRUE(w.check_consistency(*db, &why)) << why;
}

// --- read-committed isolation ----------------------------------------------
TEST(QueccEngine, ReadCommittedServesPreBatchValues) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 256;
  wcfg.ops_per_txn = 2;
  auto w = wl::ycsb(wcfg);
  auto db = testutil::make_loaded_db(w);

  // Hand-built batch: txn0 RMWs key 42 (+100), txn1 (later) reads key 42.
  auto writer = std::make_unique<txn::txn_desc>();
  auto reader = std::make_unique<txn::txn_desc>();
  {
    common::rng r(1);
    auto tmpl = w.make_txn(r);  // borrow proc pointer/layout
    writer->proc = tmpl->proc;
    reader->proc = tmpl->proc;
  }
  txn::fragment wf;
  wf.table = 0;
  wf.key = 42;
  wf.part = 2;  // ycsb home partition of key 42 (P=4)
  wf.kind = txn::op_kind::update;
  wf.logic = wl::ycsb::op_rmw;
  wf.aux = 100;
  wf.output_slot = 0;
  writer->frags.push_back(wf);

  txn::fragment rf;
  rf.table = 0;
  rf.key = 42;
  rf.part = 2;
  rf.kind = txn::op_kind::read;
  rf.logic = wl::ycsb::op_read;
  rf.output_slot = 0;
  reader->frags.push_back(rf);

  txn::batch b;
  b.add(std::move(writer));
  b.add(std::move(reader));
  b.validate();

  config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 2;
  cfg.iso = isolation::read_committed;
  core::quecc_engine eng(*db, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);

  // Read-committed: the reader sees the pre-batch committed value (0),
  // not the writer's in-batch update (100).
  EXPECT_EQ(b.at(1).slot_value(0), 0u);

  // Next batch: the previous batch has been published as committed.
  b.reset_runtime();
  eng.run_batch(b, m);
  EXPECT_EQ(b.at(1).slot_value(0), 100u);
}

TEST(QueccEngine, SerializableReaderSeesInBatchWrite) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 256;
  wcfg.ops_per_txn = 2;
  auto w = wl::ycsb(wcfg);
  auto db = testutil::make_loaded_db(w);

  auto writer = std::make_unique<txn::txn_desc>();
  auto reader = std::make_unique<txn::txn_desc>();
  {
    common::rng r(1);
    auto tmpl = w.make_txn(r);
    writer->proc = tmpl->proc;
    reader->proc = tmpl->proc;
  }
  txn::fragment wf;
  wf.table = 0;
  wf.key = 42;
  wf.part = 2;  // ycsb home partition of key 42 (P=4)
  wf.kind = txn::op_kind::update;
  wf.logic = wl::ycsb::op_rmw;
  wf.aux = 100;
  wf.output_slot = 0;
  writer->frags.push_back(wf);
  txn::fragment rf;
  rf.table = 0;
  rf.key = 42;
  rf.part = 2;
  rf.kind = txn::op_kind::read;
  rf.logic = wl::ycsb::op_read;
  rf.output_slot = 0;
  reader->frags.push_back(rf);

  txn::batch b;
  b.add(std::move(writer));
  b.add(std::move(reader));

  config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 2;
  cfg.iso = isolation::serializable;
  core::quecc_engine eng(*db, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);
  EXPECT_EQ(b.at(1).slot_value(0), 100u);
}

TEST(QueccEngine, ReadCommittedMatchesSerialStateForUpdates) {
  // RC relaxes *reads*; the write path still produces the serializable
  // final state for update-only workloads.
  wl::ycsb_config wcfg;
  wcfg.table_size = 1024;
  wcfg.read_ratio = 0.4;
  wcfg.zipf_theta = 0.7;
  auto w = wl::ycsb(wcfg);

  auto db_engine = testutil::make_loaded_db(w);
  auto db_serial = db_engine->clone();

  common::rng r(55);
  auto b = w.make_batch(r, 512);

  config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  cfg.iso = isolation::read_committed;
  core::quecc_engine eng(*db_engine, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);

  testutil::replay_in_seq_order(*db_serial, b);
  EXPECT_EQ(db_engine->state_hash(), db_serial->state_hash());
}

// --- parking: executors overtake waiting entries, results stay serial ------

std::uint64_t counter(const std::string& name) {
  for (const auto& [n, v] : obs::snapshot_metrics().counters) {
    if (n == name) return v;
  }
  return 0;
}

struct run_result {
  std::uint64_t hash;
  std::vector<std::vector<std::uint64_t>> fingerprints;
};

run_result run_parking_case(const storage::database& db0,
                            std::vector<txn::batch>& batches, exec_model exec,
                            isolation iso, worker_id_t executors,
                            std::uint32_t depth) {
  auto db = db0.clone();
  config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = executors;
  cfg.execution = exec;
  cfg.iso = iso;
  cfg.pipeline_depth = depth;
  for (auto& b : batches) b.reset_runtime();
  {
    core::quecc_engine eng(*db, cfg);
    common::run_metrics m;
    for (auto& b : batches) eng.submit_batch(b, m);
    while (eng.drain_batch()) {
    }
  }
  run_result out{db->state_hash(), {}};
  for (const auto& b : batches) {
    const auto fp = testutil::result_fingerprints(b);
    out.fingerprints.insert(out.fingerprints.end(), fp.begin(), fp.end());
  }
  return out;
}

TEST(QueccEngine, ParkingMatchesSerialUnderContention) {
  // Skewed, dependent, sometimes-aborting transactions: entries wait on
  // slots and (conservative) on abortable fragments of other executors, so
  // executors park and overtake. Per-record order must still give the
  // serial state and the serial results.
  wl::ycsb_config wcfg;
  wcfg.table_size = 1024;
  wcfg.zipf_theta = 0.99;
  wcfg.read_ratio = 0.3;
  wcfg.dependent_ops = true;
  wcfg.abort_ratio = 0.05;
  wl::ycsb w(wcfg);
  const auto db0 = testutil::make_loaded_db(w);

  common::rng r(31);
  std::vector<txn::batch> batches;
  for (std::uint32_t i = 0; i < 4; ++i) {
    batches.push_back(w.make_batch(r, 512, i));
  }
  auto db_serial = db0->clone();
  std::vector<std::vector<std::uint64_t>> serial_fps;
  for (auto& b : batches) {
    testutil::replay_in_seq_order(*db_serial, b);
    const auto fp = testutil::result_fingerprints(b);
    serial_fps.insert(serial_fps.end(), fp.begin(), fp.end());
  }

  const auto parked0 = counter("engine.exec_parked_total");
  for (const auto iso : {isolation::serializable, isolation::read_committed}) {
    for (const auto exec :
         {exec_model::speculative, exec_model::conservative}) {
      // Read-committed read-queue results are not serial-equivalent; the
      // single-executor lockstep run, where nothing overtakes, is their
      // reference.
      const auto want_fps =
          iso == isolation::serializable
              ? serial_fps
              : run_parking_case(*db0, batches, exec, iso, 1, 1).fingerprints;
      for (const worker_id_t executors : {3, 4}) {
        for (const std::uint32_t depth : {1u, 2u, 3u}) {
          SCOPED_TRACE(std::string(common::to_string(exec)) + " " +
                       common::to_string(iso) +
                       " E=" + std::to_string(executors) +
                       " depth=" + std::to_string(depth));
          const auto got =
              run_parking_case(*db0, batches, exec, iso, executors, depth);
          EXPECT_EQ(got.hash, db_serial->state_hash());
          EXPECT_EQ(got.fingerprints, want_fps);
        }
      }
    }
  }
#if !defined(QUECC_OBS_COMPILED_OUT)
  EXPECT_GT(counter("engine.exec_parked_total"), parked0);
#else
  (void)parked0;
#endif
}

TEST(QueccEngine, LatencyRecordedPerTransaction) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1024;
  auto w = wl::ycsb(wcfg);
  auto db = testutil::make_loaded_db(w);

  common::rng r(4);
  auto b = w.make_batch(r, 128);

  config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  core::quecc_engine eng(*db, cfg);
  common::run_metrics m;
  eng.run_batch(b, m);
  EXPECT_EQ(m.txn_latency.count(), 128u);
  EXPECT_GT(m.txn_latency.mean_nanos(), 0.0);
  EXPECT_EQ(m.batches, 1u);
  EXPECT_GT(m.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace quecc
