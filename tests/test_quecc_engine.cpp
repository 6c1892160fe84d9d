// Integration tests for the queue-oriented engine (src/core): speculative
// cascades, doomed NewOrders, what reads observe under each isolation
// level, latency accounting. Serial equivalence across engine
// configurations is test_oracle's.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "test_util.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using common::config;
using common::exec_model;
using common::isolation;

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
