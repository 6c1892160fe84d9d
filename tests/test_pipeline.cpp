// Batch-pipelining tests: the submit/drain API mechanics, the stage
// driver's two-thread contract, the async epilogue worker, and the per-slot
// phase stats that make the overlap observable.
//
// The engine's two Figure 1 stages overlap across batches at depth >= 2
// (planners on batch i+1 while batch i executes), but execution and the
// commit epilogue stay sequential by batch id, so every depth yields the
// depth-1 lockstep's state and results. test_oracle checks that across
// depths, the third stage, workloads, execution models, isolation levels
// and arrival modes.
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "common/mutex.hpp"
#include "core/engine.hpp"
#include "dist/dist_quecc.hpp"
#include "harness/runner.hpp"
#include "log/log_writer.hpp"
#include "protocols/iface.hpp"
#include "protocols/session.hpp"
#include "test_util.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using common::config;
using common::exec_model;
using common::isolation;

config base_cfg(std::uint32_t depth, exec_model exec) {
  config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  cfg.pipeline_depth = depth;
  cfg.execution = exec;
  return cfg;
}

// --- third stage (async commit epilogue) -----------------------------------

TEST(ThreeStageApi, EpilogueWorkerDtorDrainsLeftoverBatches) {
  // Depth-3, async epilogue on, no explicit drain: the destructor must
  // retire every in-flight batch *through the epilogue worker* (all
  // accounting lands in m) before joining threads.
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto db_ref = db->clone();
  common::rng r(21), rr(21);
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  {
    auto cfg = base_cfg(3, exec_model::speculative);
    cfg.async_epilogue = true;
    core::quecc_engine eng(*db, cfg);
    for (int i = 0; i < 3; ++i) {
      inflight.push_back(w.make_batch(r, 128, i));
      eng.submit_batch(inflight.back(), m);
    }
  }
  EXPECT_EQ(m.batches, 3u);
  EXPECT_EQ(m.committed + m.aborted, 3u * 128u);

  auto cfg_ref = base_cfg(1, exec_model::speculative);
  cfg_ref.async_epilogue = false;
  core::quecc_engine ref(*db_ref, cfg_ref);
  common::run_metrics mr;
  for (int i = 0; i < 3; ++i) {
    auto b = w.make_batch(rr, 128, i);
    ref.run_batch(b, mr);
  }
  EXPECT_EQ(db->state_hash(), db_ref->state_hash());
  EXPECT_EQ(m.committed, mr.committed);
}

TEST(ThreeStageStats, EpilogueBusyIsAccountedAndSurfaced) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto cfg = base_cfg(3, exec_model::speculative);
  cfg.iso = isolation::read_committed;  // publish work makes epilogue busy
  core::quecc_engine eng(*db, cfg);
  harness::run_options opts;
  opts.batches = 4;
  opts.batch_size = 1024;
  const auto res = harness::run_workload(eng, w, *db, opts);
  EXPECT_GT(res.metrics.epilogue_busy_seconds, 0.0);
  EXPECT_NE(res.metrics.summary("quecc").find("epilogue_busy="),
            std::string::npos);
}

using testutil::counter;

TEST(ThreeStageStats, ExecutorIdleBetweenBatchesIsAttributed) {
#if defined(QUECC_OBS_COMPILED_OUT)
  GTEST_SKIP() << "observability compiled out";
#endif
  // The last executor out of each batch waits for that batch's epilogue
  // to publish before it may start the next one; that wait is booked to
  // the publish even while the next batch is not planned either. (A plan
  // wait is likely but not certain: a late-starting executor may find
  // every batch planned.)
  const std::uint64_t publish0 = counter("engine.exec_wait_publish_nanos");
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto cfg = base_cfg(2, exec_model::speculative);
  cfg.async_epilogue = true;
  {
    core::quecc_engine eng(*db, cfg);
    harness::run_options opts;
    opts.batches = 8;
    opts.batch_size = 512;
    const auto res = harness::run_workload(eng, w, *db, opts);
    EXPECT_EQ(res.metrics.batches, 8u);
  }
  EXPECT_GT(counter("engine.exec_wait_publish_nanos"), publish0);
}

// --- submit/drain API mechanics -------------------------------------------

TEST(PipelineApi, SubmitDrainPairEqualsRunBatch) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);

  auto db1 = testutil::make_loaded_db(w);
  auto db2 = db1->clone();
  common::rng r1(9), r2(9);

  core::quecc_engine e1(*db1, base_cfg(2, exec_model::speculative));
  common::run_metrics m1;
  for (int i = 0; i < 3; ++i) {
    auto b = w.make_batch(r1, 200, i);
    e1.run_batch(b, m1);
  }

  core::quecc_engine e2(*db2, base_cfg(2, exec_model::speculative));
  common::run_metrics m2;
  std::deque<txn::batch> inflight;
  for (int i = 0; i < 3; ++i) {
    inflight.push_back(w.make_batch(r2, 200, i));
    e2.submit_batch(inflight.back(), m2);
  }
  while (e2.drain_batch()) {
  }
  EXPECT_EQ(db1->state_hash(), db2->state_hash());
  EXPECT_EQ(m1.committed, m2.committed);
  EXPECT_EQ(m1.aborted, m2.aborted);
  EXPECT_EQ(m2.batches, 3u);
}

TEST(PipelineApi, DrainWithNothingInFlightIsANoOp) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 512;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));
  EXPECT_FALSE(eng.drain_batch());
  EXPECT_EQ(eng.pipeline_depth(), 2u);
}

TEST(PipelineApi, SubmitBeyondDepthRetiresOldestFirst) {
  // Submitting more batches than the ring holds must transparently drain
  // the oldest (the engine does it on the caller's behalf).
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto db_ref = db->clone();
  common::rng r(4), rr(4);

  core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  for (int i = 0; i < 6; ++i) {
    inflight.push_back(w.make_batch(r, 128, i));
    eng.submit_batch(inflight.back(), m);
  }
  while (eng.drain_batch()) {
  }
  EXPECT_EQ(m.batches, 6u);
  EXPECT_EQ(m.committed + m.aborted, 6u * 128u);

  core::quecc_engine ref(*db_ref, base_cfg(1, exec_model::speculative));
  common::run_metrics mr;
  for (int i = 0; i < 6; ++i) {
    auto b = w.make_batch(rr, 128, i);
    ref.run_batch(b, mr);
  }
  EXPECT_EQ(db->state_hash(), db_ref->state_hash());
}

TEST(PipelineApi, EngineDestructorDrainsLeftoverBatches) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 2048;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  common::rng r(21);
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  {
    core::quecc_engine eng(*db, base_cfg(2, exec_model::speculative));
    for (int i = 0; i < 2; ++i) {
      inflight.push_back(w.make_batch(r, 128, i));
      eng.submit_batch(inflight.back(), m);
    }
    // No drain: the destructor must retire both before stopping workers.
  }
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.committed + m.aborted, 2u * 128u);
}

// --- the stage driver's two-thread submit/drain contract ------------------

/// Records of one drained batch: its batch and commit record lsns and the
/// log's durable watermark right after sync_durable().
struct drained_record {
  std::uint64_t batch_lsn = 0;
  std::uint64_t commit_lsn = 0;
  std::uint64_t durable_lsn = 0;
};

/// One submitter thread and one drainer thread (which also calls
/// sync_durable) over a durable engine. The submitter keeps at most
/// pipeline_depth() batches undrained. The drainer takes no hand-off from
/// it: it retries drain_batch until a batch is in flight, so it may drain a
/// batch whose submit_batch is still appending the batch record — the
/// window the driver's logged_ wait covers. Returns one record per drained
/// batch, in drain order.
template <class Engine>
std::vector<drained_record> submit_and_drain_two_threads(
    Engine& eng, std::deque<txn::batch>& batches, common::run_metrics& m) {
  const std::uint32_t depth = eng.pipeline_depth();
  const std::size_t n = batches.size();
  common::mutex mu;
  common::cond_var cv;
  std::size_t drained = 0;  // under mu
  std::vector<drained_record> out;
  std::thread submitter([&] {
    for (std::size_t k = 0; k < n; ++k) {
      {
        common::mutex_lock lk(mu);
        while (k - drained >= depth) cv.wait(lk);
      }
      eng.submit_batch(batches[k], m);
    }
  });
  std::thread drainer([&] {
    for (std::size_t k = 0; k < n; ++k) {
      while (!eng.drain_batch()) std::this_thread::yield();
      eng.sync_durable();
      const auto lsns = eng.drained_lsns();
      out.push_back({lsns.batch, lsns.commit, eng.wal()->durable_lsn()});
      {
        common::mutex_lock lk(mu);
        ++drained;
      }
      cv.notify_all();
    }
  });
  submitter.join();
  drainer.join();
  return out;
}

TEST(StageDriver, SubmitAndDrainFromTwoThreads) {
  constexpr std::size_t kBatches = 12;
  constexpr std::uint32_t kTxns = 128;
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wcfg.partitions = 4;
  wcfg.multi_partition_ratio = 0.3;
  wcfg.abort_ratio = 0.05;
  wl::ycsb w(wcfg);

  std::uint64_t serial_hash = 0;
  {
    storage::database db;
    w.load(db);
    config cfg;
    cfg.partitions = 4;
    auto eng = proto::make_engine("serial", db, cfg);
    common::rng r(17);
    common::run_metrics m;
    for (std::size_t k = 0; k < kBatches; ++k) {
      auto b = w.make_batch(r, kTxns, static_cast<std::uint32_t>(k));
      eng->run_batch(b, m);
    }
    serial_hash = db.state_hash();
  }

  const auto check = [&](const std::string& label, std::uint32_t depth) {
    SCOPED_TRACE(label + " at depth " + std::to_string(depth));
    testutil::temp_dir dir;
    storage::database db;
    w.load(db);
    config cfg = base_cfg(depth, exec_model::speculative);
    cfg.partitions = 4;
    cfg.durable = true;
    cfg.log_dir = dir.path;
    common::rng r(17);
    std::deque<txn::batch> batches;
    for (std::size_t k = 0; k < kBatches; ++k) {
      batches.push_back(
          w.make_batch(r, kTxns, static_cast<std::uint32_t>(k)));
    }
    common::run_metrics m;
    std::vector<drained_record> recs;
    if (label == "dist-quecc") {
      cfg.planner_threads = 1;
      cfg.nodes = 2;
      cfg.net_latency_micros = 10;
      dist::dist_quecc_engine eng(db, cfg);
      recs = submit_and_drain_two_threads(eng, batches, m);
    } else {
      core::quecc_engine eng(db, cfg);
      recs = submit_and_drain_two_threads(eng, batches, m);
    }
    EXPECT_EQ(db.state_hash(), serial_hash);
    EXPECT_EQ(m.batches, kBatches);
    EXPECT_EQ(m.committed + m.aborted, kBatches * kTxns);
    ASSERT_EQ(recs.size(), kBatches);
    for (std::size_t k = 0; k < kBatches; ++k) {
      SCOPED_TRACE("batch " + std::to_string(k));
      EXPECT_GT(recs[k].batch_lsn, 0u);
      EXPECT_LE(recs[k].batch_lsn, recs[k].durable_lsn);
      EXPECT_LE(recs[k].commit_lsn, recs[k].durable_lsn);
      // Commit records land in batch order, so a stale or swapped slot
      // lsn shows up here.
      if (k > 0) {
        EXPECT_GT(recs[k].commit_lsn, recs[k - 1].commit_lsn);
      }
    }
  };
  check("quecc", 2);
  check("quecc", 3);
  check("dist-quecc", 2);
}

// --- per-slot phase stats (both queue engines, one stage driver) -----------

/// `engine` at the given depth; dist-quecc runs two nodes of base_cfg's
/// per-node thread counts.
std::unique_ptr<proto::engine> stats_engine(const std::string& engine,
                                            storage::database& db,
                                            std::uint32_t depth) {
  config cfg = base_cfg(depth, exec_model::speculative);
  if (engine == "dist-quecc") {
    cfg.nodes = 2;
    cfg.net_latency_micros = 10;
  }
  return proto::make_engine(engine, db, cfg);
}

const core::phase_stats& last_phases(const proto::engine& eng) {
  if (const auto* q = dynamic_cast<const core::quecc_engine*>(&eng)) {
    return q->last_phases();
  }
  return dynamic_cast<const dist::dist_quecc_engine&>(eng).last_phases();
}

/// Engine name as a gtest parameter label ('-' is not allowed there).
std::string engine_label(std::string e) {
  for (auto& c : e) {
    if (c == '-') c = '_';
  }
  return e;
}

class PipelineStats : public testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Engines, PipelineStats,
                         testing::Values("quecc", "dist-quecc"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return engine_label(info.param);
                         });

TEST_P(PipelineStats, BusyTimesAndOccupancyAreReported) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1 << 14;
  wcfg.ops_per_txn = 8;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto eng = stats_engine(GetParam(), *db, 2);

  harness::run_options opts;
  opts.batches = 4;
  opts.batch_size = 2048;
  const auto res = harness::run_workload(*eng, w, *db, opts);

  EXPECT_GT(res.metrics.plan_busy_seconds, 0.0);
  EXPECT_GT(res.metrics.exec_busy_seconds, 0.0);
  EXPECT_GE(res.metrics.pipeline_overlap_seconds, 0.0);
  // summary() must surface the stage accounting at depth >= 2.
  EXPECT_NE(res.metrics.summary(GetParam()).find("stages{"),
            std::string::npos);

  const auto& ph = last_phases(*eng);
  EXPECT_GT(ph.plan_seconds, 0.0);
  EXPECT_GT(ph.exec_seconds, 0.0);
  EXPECT_GT(ph.plan_busy_seconds, 0.0);
  EXPECT_GT(ph.exec_busy_seconds, 0.0);
  EXPECT_GT(ph.planned_fragments, 0u);
}

TEST_P(PipelineStats, OverlapIsObservedWhenBatchesAreInFlightTogether) {
  // Two fat batches submitted back to back: batch 1's planning window
  // necessarily intersects batch 0's execution window (both are in flight
  // between the submits and the first drain). Wall-clock windows overlap
  // even on a single-CPU box as long as planning 1 starts before exec 0
  // finishes, which the batch size makes effectively certain. Batches are
  // generated up front: generating one takes about as long as executing
  // one, which would otherwise let batch 0 finish before batch 1 arrives.
  wl::ycsb_config wcfg;
  wcfg.table_size = 1 << 14;
  wcfg.ops_per_txn = 16;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto eng = stats_engine(GetParam(), *db, 2);

  common::rng r(1);
  common::run_metrics m;
  std::deque<txn::batch> inflight;
  for (int i = 0; i < 4; ++i) inflight.push_back(w.make_batch(r, 8192, i));
  for (auto& b : inflight) eng->submit_batch(b, m);
  while (eng->drain_batch()) {
  }
  if (std::thread::hardware_concurrency() >= 4) {
    EXPECT_GT(m.pipeline_overlap_seconds, 0.0);
  } else {
    EXPECT_GE(m.pipeline_overlap_seconds, 0.0);
  }
}

TEST_P(PipelineStats, LockstepReportsZeroOverlap) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);
  auto eng = stats_engine(GetParam(), *db, 1);
  harness::run_options opts;
  opts.batches = 3;
  opts.batch_size = 512;
  const auto res = harness::run_workload(*eng, w, *db, opts);
  EXPECT_EQ(res.metrics.pipeline_overlap_seconds, 0.0);
  EXPECT_EQ(last_phases(*eng).overlap_seconds, 0.0);
}

// --- sessions over a pipelined engine --------------------------------------

TEST(PipelineSession, TicketsResolveWithTwoBatchesInFlight) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wl::ycsb w(wcfg);
  auto db = testutil::make_loaded_db(w);

  auto cfg = base_cfg(2, exec_model::speculative);
  cfg.batch_size = 64;
  cfg.batch_deadline_micros = 200;
  core::quecc_engine eng(*db, cfg);
  common::rng r(33);

  proto::session s(eng, cfg);
  std::vector<proto::session::ticket> tickets;
  for (int i = 0; i < 512; ++i) tickets.push_back(s.submit(w.make_txn(r)));
  std::uint64_t done = 0;
  for (auto& t : tickets) {
    const auto res = t.wait();
    EXPECT_NE(res.status, txn::txn_status::active);
    EXPECT_GE(res.e2e_nanos, res.queue_nanos);
    ++done;
  }
  s.close();
  EXPECT_EQ(done, 512u);
  EXPECT_EQ(s.metrics().committed + s.metrics().aborted, 512u);
  EXPECT_GE(s.batches_formed(), 512u / 64u);
}

}  // namespace
}  // namespace quecc
