// Batch-pipelining tests: pipeline_depth must be invisible in results.
//
// The engine's two Figure 1 stages overlap across batches at depth >= 2
// (planners on batch i+1 while batch i executes), but execution and the
// commit epilogue stay sequential by batch id — so a depth-N run must
// produce bit-identical state to the depth-1 lockstep on every workload,
// execution model, isolation level, and arrival mode. These tests pin that
// contract, plus the submit/drain API mechanics and the per-slot phase
// stats that make the overlap observable.
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "core/engine.hpp"
#include "dist/dist_quecc.hpp"
#include "harness/runner.hpp"
#include "protocols/iface.hpp"
#include "protocols/session.hpp"
#include "test_util.hpp"
#include "workload/bank.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using common::config;
using common::exec_model;
using common::isolation;

config base_cfg(std::uint32_t depth, exec_model exec,
                isolation iso = isolation::serializable) {
  config cfg;
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  cfg.pipeline_depth = depth;
  cfg.execution = exec;
  cfg.iso = iso;
  return cfg;
}

std::unique_ptr<wl::workload> make_named(const std::string& name) {
  if (name == "ycsb") {
    wl::ycsb_config w;
    w.table_size = 4096;
    w.zipf_theta = 0.8;
    w.read_ratio = 0.5;
    w.abort_ratio = 0.05;
    return std::make_unique<wl::ycsb>(w);
  }
  if (name == "bank") {
    wl::bank_config w;
    w.accounts = 512;
    w.max_transfer = 1500;  // often exceeds balance => aborts
    return std::make_unique<wl::bank>(w);
  }
  wl::tpcc_config w;
  w.warehouses = 2;
  w.initial_orders_per_district = 40;
  w.order_headroom_per_district = 2000;
  return std::make_unique<wl::tpcc>(w);
}

/// Closed-loop hash of `batches` batches at the given depth/exec/iso.
std::uint64_t closed_loop_hash(const std::string& wname, std::uint32_t depth,
                               exec_model exec,
                               isolation iso = isolation::serializable,
                               std::uint32_t batches = 6) {
  auto w = make_named(wname);
  storage::database db;
  w->load(db);
  core::quecc_engine eng(db, base_cfg(depth, exec, iso));
  harness::run_options opts;
  opts.batches = batches;
  opts.batch_size = 256;
  opts.seed = 2027;
  const auto res = harness::run_workload(eng, *w, db, opts);
  EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
  EXPECT_EQ(res.metrics.batches, batches);
  return res.final_state_hash;
}

// --- depth-1 ≡ depth-2 on every workload / exec-model combination ---------

struct det_params {
  const char* workload;
  exec_model exec;
};

std::string det_name(const testing::TestParamInfo<det_params>& info) {
  return std::string(info.param.workload) + "_" +
         (info.param.exec == exec_model::speculative ? "spec" : "cons");
}

class PipelineDeterminism : public testing::TestWithParam<det_params> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineDeterminism,
    testing::Values(det_params{"ycsb", exec_model::speculative},
                    det_params{"ycsb", exec_model::conservative},
                    det_params{"bank", exec_model::speculative},
                    det_params{"bank", exec_model::conservative},
                    det_params{"tpcc", exec_model::speculative},
                    det_params{"tpcc", exec_model::conservative}),
    det_name);

TEST_P(PipelineDeterminism, ClosedLoopDepth2MatchesLockstep) {
  const auto [wname, exec] = GetParam();
  const auto h1 = closed_loop_hash(wname, 1, exec);
  const auto h2 = closed_loop_hash(wname, 2, exec);
  EXPECT_EQ(h1, h2);
}

TEST_P(PipelineDeterminism, OpenLoopDepth2MatchesLockstepClosedLoop) {
  const auto [wname, exec] = GetParam();
  const auto closed = closed_loop_hash(wname, 1, exec, isolation::serializable,
                                       /*batches=*/4);

  auto w = make_named(wname);
  storage::database db;
  w->load(db);
  core::quecc_engine eng(db, base_cfg(2, exec));
  harness::run_options opts;
  opts.batches = 4;
  opts.batch_size = 256;
  opts.seed = 2027;
  opts.mode = harness::arrival_mode::open_loop;
  opts.offered_load_tps = 2e6;  // keep the admission queue backed up
  opts.batch_deadline_micros = 200;
  const auto res = harness::run_workload(eng, *w, db, opts);
  EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
  EXPECT_EQ(res.final_state_hash, closed);
}

TEST(PipelineDeterminism, DeeperRingsAndWiderGeometriesAgree) {
  const auto h1 = closed_loop_hash("ycsb", 1, exec_model::speculative);
  EXPECT_EQ(h1, closed_loop_hash("ycsb", 3, exec_model::speculative));
  EXPECT_EQ(h1, closed_loop_hash("ycsb", 4, exec_model::speculative));
}

TEST(PipelineDeterminism, ReadCommittedPublishesAtSlotBoundary) {
  // RC publishes the committed image in the (per-slot) epilogue; depth
  // must not change which batch's writes a read queue observes.
  const auto h1 = closed_loop_hash("ycsb", 1, exec_model::speculative,
                                   isolation::read_committed);
  const auto h2 = closed_loop_hash("ycsb", 2, exec_model::speculative,
                                   isolation::read_committed);
  EXPECT_EQ(h1, h2);
}

TEST(PipelineDeterminism, ReadCommittedReadsMatchLockstepUnderIndexChurn) {
  // TPC-C under read-committed: NewOrder inserts and Delivery erases
  // mutate the primary indexes mid-batch while pure reads sit in the
  // dynamically-claimed read queues. Their rids must resolve at the
  // quiescent point (batch_slot::resolve_read_queues), or depth >= 2
  // would make the read *values* timing-dependent — which state hashes
  // alone cannot catch, so compare per-transaction result fingerprints.
  // TPC-C's generator is stateful (district order counters), so each
  // engine gets its own workload + database producing the identical,
  // independent stream.
  struct outcome {
    std::vector<std::vector<std::uint64_t>> fingerprints;
    std::uint64_t hash;
  };
  auto run_at_depth = [](std::uint32_t depth) {
    wl::tpcc_config wcfg;
    wcfg.warehouses = 2;
    wcfg.initial_orders_per_district = 40;
    wcfg.order_headroom_per_district = 2000;
    wl::tpcc w(wcfg);
    auto db = testutil::make_loaded_db(w);
    common::rng r(77);
    core::quecc_engine eng(*db, base_cfg(depth, exec_model::speculative,
                                         isolation::read_committed));
    common::run_metrics m;
    outcome out;
    std::deque<txn::batch> inflight;
    for (int i = 0; i < 4; ++i) {
      inflight.push_back(w.make_batch(r, 256, i));
      eng.submit_batch(inflight.back(), m);
    }
    while (eng.drain_batch()) {
    }
    for (auto& b : inflight) {
      auto fp = testutil::result_fingerprints(b);
      out.fingerprints.insert(out.fingerprints.end(), fp.begin(), fp.end());
    }
    out.hash = db->state_hash();
    return out;
  };
  const outcome lockstep = run_at_depth(1);
  const outcome pipelined = run_at_depth(2);
  EXPECT_EQ(lockstep.hash, pipelined.hash);
  EXPECT_EQ(lockstep.fingerprints, pipelined.fingerprints);
}

// --- third stage (async commit epilogue) -----------------------------------

/// Hash of a fixed YCSB stream through any registered engine at the given
/// depth, with the third pipeline stage (async epilogue) on or off. RC
/// isolation: the epilogue publishes the committed image, so a misplaced
/// publication point shows up directly in read values (and thus writes
/// derived from them — the state hash).
std::uint64_t stage3_hash(const std::string& engine, std::uint32_t depth,
                          exec_model exec, bool stage3,
                          isolation iso = isolation::read_committed) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wcfg.partitions = 4;
  wcfg.zipf_theta = 0.8;
  wcfg.read_ratio = 0.5;
  wcfg.abort_ratio = 0.05;
  wcfg.multi_partition_ratio = engine == "dist-quecc" ? 0.3 : 0.0;
  wl::ycsb w(wcfg);
  storage::database db;
  w.load(db);
  config cfg = base_cfg(depth, exec, iso);
  cfg.partitions = 4;
  cfg.async_epilogue = stage3;
  if (engine == "dist-quecc") {
    cfg.nodes = 2;
    cfg.net_latency_micros = 10;
  }
  auto eng = proto::make_engine(engine, db, cfg);
  harness::run_options opts;
  opts.batches = 5;
  opts.batch_size = 256;
  opts.seed = 2027;
  const auto res = harness::run_workload(*eng, w, db, opts);
  EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
  return res.final_state_hash;
}

struct stage3_params {
  const char* engine;
  exec_model exec;
};

/// Engine name as a gtest parameter label ('-' is not allowed there).
std::string engine_label(std::string e) {
  for (auto& c : e) {
    if (c == '-') c = '_';
  }
  return e;
}

std::string stage3_name(const testing::TestParamInfo<stage3_params>& info) {
  return engine_label(info.param.engine) + "_" +
         (info.param.exec == exec_model::speculative ? "spec" : "cons");
}

class ThreeStageDeterminism : public testing::TestWithParam<stage3_params> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ThreeStageDeterminism,
    testing::Values(stage3_params{"quecc", exec_model::speculative},
                    stage3_params{"quecc", exec_model::conservative},
                    stage3_params{"dist-quecc", exec_model::speculative},
                    stage3_params{"dist-quecc", exec_model::conservative}),
    stage3_name);

TEST_P(ThreeStageDeterminism, RcHashesIdenticalAcrossDepthsAndStage3) {
  // The whole depth x stage3 grid must collapse to one hash: the inline
  // depth-1 lockstep (the paper's semantics) is the baseline.
  const auto [engine, exec] = GetParam();
  const auto baseline = stage3_hash(engine, 1, exec, /*stage3=*/false);
  for (std::uint32_t depth : {1u, 2u, 3u}) {
    for (bool s3 : {false, true}) {
      EXPECT_EQ(stage3_hash(engine, depth, exec, s3), baseline)
          << engine << " depth=" << depth << " stage3=" << s3;
    }
  }
}

TEST(ThreeStageDeterminism, SerializableAgreesWithInlineLockstep) {
  const auto base = stage3_hash("quecc", 1, exec_model::speculative,
                                /*stage3=*/false, isolation::serializable);
  EXPECT_EQ(stage3_hash("quecc", 3, exec_model::speculative, true,
                        isolation::serializable),
            base);
  EXPECT_EQ(stage3_hash("quecc", 3, exec_model::speculative, false,
                        isolation::serializable),
            base);
}

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

TEST(PipelineDeterminism, DistQueccDepth2MatchesLockstep) {
  auto hash_at = [](std::uint32_t depth) {
    wl::ycsb_config wcfg;
    wcfg.table_size = 4096;
    wcfg.partitions = 4;
    wcfg.multi_partition_ratio = 0.3;
    wl::ycsb w(wcfg);
    storage::database db;
    w.load(db);
    config cfg;
    cfg.planner_threads = 1;
    cfg.executor_threads = 2;
    cfg.nodes = 2;
    cfg.partitions = 4;
    cfg.net_latency_micros = 10;
    cfg.pipeline_depth = depth;
    auto eng = proto::make_engine("dist-quecc", db, cfg);
    harness::run_options opts;
    opts.batches = 4;
    opts.batch_size = 256;
    opts.seed = 11;
    const auto res = harness::run_workload(*eng, w, db, opts);
    EXPECT_EQ(res.metrics.committed + res.metrics.aborted, opts.total_txns());
    return res.final_state_hash;
  };
  EXPECT_EQ(hash_at(1), hash_at(2));
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
