// Integration tests for the queue-oriented engine (src/core): speculative
// cascades, doomed NewOrders, what reads observe under each isolation
// level, latency accounting. Serial equivalence across engine
// configurations is test_oracle's.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "protocols/iface.hpp"
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

/// Whether the planner queues at least one entry of `t`: it did not abort
/// at plan time, and some fragment is not a check the planner decides
/// itself (an input-free abortable read of a replicated table).
bool queues_an_entry(const txn::txn_desc& t, const storage::database& db) {
  if (t.aborted_at_plan()) return false;
  for (const auto& f : t.frags) {
    const bool decided = f.abortable && f.kind == txn::op_kind::read &&
                         f.input_mask == 0 && db.at(f.table).replicated();
    if (!decided) return true;
  }
  return false;
}

struct latency_case {
  const char* name;
  const char* engine;
  config cfg;
  bool tpcc;  ///< TPC-C with replicated ITEM and invalid items, else YCSB
};

TEST(QueccEngine, LatencyRecordedPerTransaction) {
  // The executors stamp the transactions they finish; the epilogue turns
  // each transaction's latest stamp into one txn_latency sample, measured
  // from the batch's submission. So every transaction that queued an entry
  // has exactly one sample, within its batch's submit-to-drain window.
  std::vector<latency_case> cases;
  const auto add = [&](const char* name, const char* engine, bool tpcc,
                       auto&& tweak) {
    config cfg;
    cfg.planner_threads = 1;
    cfg.executor_threads = 1;
    tweak(cfg);
    cases.push_back({name, engine, cfg, tpcc});
  };
  add("one executor", "quecc", false, [](config&) {});
  add("two executors", "quecc", false, [](config& c) {
    c.planner_threads = 2;
    c.executor_threads = 2;
  });
  add("depth 2, async epilogue", "quecc", false, [](config& c) {
    c.executor_threads = 2;
    c.pipeline_depth = 2;
    c.async_epilogue = true;
  });
  add("dist-quecc, 2 nodes", "dist-quecc", false, [](config& c) {
    c.nodes = 2;
    c.executor_threads = 2;
  });
  add("tpcc, plan-time aborts", "quecc", true, [](config& c) {
    c.planner_threads = 2;
    c.executor_threads = 2;
  });

  for (const latency_case& lc : cases) {
    SCOPED_TRACE(lc.name);
    wl::ycsb_config ycfg;
    ycfg.table_size = 1024;
    ycfg.multi_partition_ratio = 0.5;
    wl::tpcc_config tcfg;
    tcfg.warehouses = 2;
    tcfg.partitions = 4;
    tcfg.invalid_item_ratio = 0.2;
    std::unique_ptr<wl::workload> w;
    if (lc.tpcc) {
      w = std::make_unique<wl::tpcc>(tcfg);
    } else {
      w = std::make_unique<wl::ycsb>(ycfg);
    }
    auto db = testutil::make_loaded_db(*w);
    common::rng r(4);
    std::vector<txn::batch> batches;
    for (std::uint32_t i = 0; i < 4; ++i) {
      batches.push_back(w->make_batch(r, 128, i));
    }

    auto eng = proto::make_engine(lc.engine, *db, lc.cfg);
    const std::size_t n = batches.size();
    std::vector<common::run_metrics> ms(n);
    std::vector<std::uint64_t> submitted(n), drained(n);
    // Keep up to pipeline_depth batches in flight.
    const std::size_t depth = eng->pipeline_depth();
    for (std::size_t i = 0; i < n; i += depth) {
      const std::size_t end = std::min(n, i + depth);
      for (std::size_t j = i; j < end; ++j) {
        submitted[j] = common::now_nanos();
        eng->submit_batch(batches[j], ms[j]);
      }
      for (std::size_t j = i; j < end; ++j) {
        ASSERT_TRUE(eng->drain_batch());
        drained[j] = common::now_nanos();
      }
    }

    std::uint64_t plan_aborts = 0;
    for (std::size_t j = 0; j < n; ++j) {
      SCOPED_TRACE(j);
      std::uint64_t queued = 0;
      for (const auto& t : batches[j]) {
        queued += queues_an_entry(*t, *db) ? 1 : 0;
        plan_aborts += t->aborted_at_plan() ? 1 : 0;
      }
      const common::latency_histogram& h = ms[j].txn_latency;
      EXPECT_EQ(h.count(), queued);
      EXPECT_EQ(ms[j].batches, 1u);
      const std::uint64_t window = drained[j] - submitted[j];
      EXPECT_GT(h.sum_nanos(), 0u);
      EXPECT_LE(h.sum_nanos(), h.count() * window);
      for (std::size_t k = 0; k < common::latency_histogram::kBuckets; ++k) {
        if (h.bucket_count(k) != 0) {
          EXPECT_LE(common::latency_histogram::bucket_lower_nanos(k),
                    static_cast<double>(window))
              << "bucket " << k;
        }
      }
    }
    // The TPC-C case must exercise transactions without a sample.
    if (lc.tpcc) {
      EXPECT_GT(plan_aborts, 0u);
    }
  }
}

}  // namespace
}  // namespace quecc
