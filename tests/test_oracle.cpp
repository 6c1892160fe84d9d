// Differential oracle: seeded random engine configurations against the
// serial run of the same transactions.
//
// The paper's determinism claim is that every configuration reaches the
// state of a serial run in batch-sequence order (Saad et al.'s
// predefined-order model). This suite checks it by drawing configurations
// instead of enumerating them.
//
// What a draw picks (make_draw, a pure function of its seed):
//   * the engine: quecc; dist-quecc at 2-4 nodes; dist-calvin at 1-4 nodes;
//   * the queue engines' config: planners and executors (per node), pipeline
//     depth 1-4, async epilogue on or off, partitions, speculative or
//     conservative, serializable or read-committed;
//   * the workload: YCSB (theta, read ratio, abort ratio, dependent ops,
//     multi-partition share, scans), bank (max_transfer from below to far
//     above the initial balance), or full TPC-C (scan profiles, invalid
//     items); the index kind, hash or ordered; for TPC-C, whether ITEM is
//     replicated (its aborts are decided at plan time) or not (at run time);
//   * the arrival mode: closed-loop submit_batch/drain_batch, or the
//     open-loop proto::session;
//   * durability: off, or on with a kill point k: the run stops after batch
//     k and log::recover replays the log into a fresh database.
//
// What a draw asserts:
//   * the state hash equals testutil::replay_in_seq_order's over the batches
//     run, and a durable draw's recovered hash equals it too;
//   * serializable: every transaction's result fingerprint equals serial's;
//   * read-committed: the fingerprints equal those of a conservative,
//     1-planner, 1-executor, depth-1 read-committed quecc run of the same
//     batches, and those equal a serial model in which the reads the
//     planner routes to read queues see the batch-start image (closed loop
//     only: open-loop batch boundaries follow the clock);
//   * counters: spec.logged_batches_total grows by exactly the batches that
//     hold a run-time abortable under speculation, and never otherwise;
//     conservative runs cascade nothing; without run-time abortables nothing
//     recovers and no update waits on a commit dependency; contended draws
//     park entries (engine.exec_parked_total); distributed runs send
//     messages exactly when they have more than one node;
//   * TPC-C with ITEM replicated: every abort is decided at plan time and
//     the planners queue only the surviving fragments; TPC-C stays
//     consistent and bank conserves money.
//
// The fixed seed set is Draws/Oracle.MatchesSerial/0..kDraws-1, draw i
// using seed i. `test_oracle --gtest_repeat=N` is a long run: repetition r
// runs seeds r*kDraws .. r*kDraws+kDraws-1. A failure prints the seed, the
// drawn config and the command that replays it.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/planner.hpp"
#include "dist/dist_quecc.hpp"
#include "log/plan_codec.hpp"
#include "log/recovery.hpp"
#include "obs/metrics.hpp"
#include "protocols/session.hpp"
#include "storage/dual_version.hpp"
#include "test_util.hpp"
#include "workload/bank.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

using common::exec_model;
using common::isolation;

constexpr std::uint64_t kDraws = 64;

// --- the draw -------------------------------------------------------------

enum class wl_kind : std::uint8_t { ycsb, bank, tpcc };

struct draw {
  std::uint64_t seed = 0;
  std::string engine;   ///< quecc, dist-quecc or dist-calvin
  common::config cfg;   ///< durable and log_dir are set by the run
  wl_kind kind = wl_kind::ycsb;
  wl::ycsb_config ycsb;
  wl::bank_config bank;
  wl::tpcc_config tpcc;
  bool item_replicated = true;
  bool open_loop = false;
  std::uint32_t batches = 0;
  std::uint32_t batch_size = 0;
  /// Durable draws stop after this many batches and recover; 0 = in memory.
  std::uint32_t kill_after = 0;

  bool queue_engine() const { return engine != "dist-calvin"; }
  bool rc() const { return cfg.iso == isolation::read_committed; }
  bool durable() const { return kill_after != 0; }
  /// Batches the run executes.
  std::uint32_t run_batches() const { return durable() ? kill_after : batches; }
  std::string describe() const;
};

const char* index_name(storage::index_kind k) {
  return k == storage::index_kind::ordered ? "ordered" : "hash";
}

std::string draw::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " engine=" << engine << " [" << cfg.describe()
     << (engine == "dist-calvin"
             ? " workers=" + std::to_string(cfg.worker_threads)
             : std::string())
     << "] ";
  switch (kind) {
    case wl_kind::ycsb:
      os << "ycsb(rows=" << ycsb.table_size << " ops=" << ycsb.ops_per_txn
         << " theta=" << ycsb.zipf_theta << " read=" << ycsb.read_ratio
         << " abort=" << ycsb.abort_ratio << " dep=" << ycsb.dependent_ops
         << " mp=" << ycsb.multi_partition_ratio << " scan=" << ycsb.scan_ratio
         << "/" << ycsb.scan_len << " index=" << index_name(ycsb.index) << ")";
      break;
    case wl_kind::bank:
      os << "bank(accounts=" << bank.accounts
         << " max_transfer=" << bank.max_transfer << ")";
      break;
    case wl_kind::tpcc:
      os << "tpcc(W=" << tpcc.warehouses << " scans=" << tpcc.scan_profiles
         << " invalid_items=" << tpcc.invalid_item_ratio
         << " index=" << index_name(tpcc.index)
         << " item=" << (item_replicated ? "replicated" : "run-time") << ")";
      break;
  }
  os << " " << batches << "x" << batch_size
     << (open_loop ? " open-loop" : " closed-loop");
  if (durable()) {
    os << " durable(kill_after=" << kill_after
       << " ckpt=" << cfg.checkpoint_interval_batches
       << " verify=" << cfg.log_verify_hash << ")";
  }
  return os.str();
}

template <typename T>
T pick(common::rng& r, std::initializer_list<T> xs) {
  return xs.begin()[r.next_below(xs.size())];
}

draw make_draw(std::uint64_t seed) {
  common::rng r(seed * 0x9e3779b97f4a7c15ull + 0x0a11ce);
  draw d;
  d.seed = seed;
  common::config& c = d.cfg;

  const double e = r.next_double();
  d.engine = e < 0.55 ? "quecc" : e < 0.85 ? "dist-quecc" : "dist-calvin";
  if (d.engine == "quecc") {
    c.planner_threads = static_cast<worker_id_t>(r.next_in(1, 3));
    c.executor_threads = static_cast<worker_id_t>(r.next_in(1, 4));
    c.partitions = pick<part_id_t>(r, {1, 2, 4, 8});
  } else {
    const bool dq = d.engine == "dist-quecc";
    c.nodes = static_cast<std::uint16_t>(r.next_in(dq ? 2 : 1, 4));
    // Per node: small, so four nodes stay a handful of threads.
    c.planner_threads = static_cast<worker_id_t>(r.next_in(1, 2));
    c.executor_threads = static_cast<worker_id_t>(r.next_in(1, 2));
    c.worker_threads = static_cast<worker_id_t>(r.next_in(1, 2));
    c.partitions = static_cast<part_id_t>(c.nodes * r.next_in(1, 2));
    c.net_latency_micros = static_cast<std::uint32_t>(r.next_in(1, 20));
  }
  c.pipeline_depth = static_cast<std::uint32_t>(r.next_in(1, 4));
  c.async_epilogue = r.next_bool(0.5);
  c.execution =
      r.next_bool(0.5) ? exec_model::speculative : exec_model::conservative;
  c.iso = d.queue_engine() && r.next_bool(0.35) ? isolation::read_committed
                                                : isolation::serializable;

  const double k = r.next_double();
  d.kind = k < 0.45 ? wl_kind::ycsb : k < 0.7 ? wl_kind::bank : wl_kind::tpcc;
  const auto index = r.next_bool(0.3) ? storage::index_kind::ordered
                                      : storage::index_kind::hash;
  switch (d.kind) {
    case wl_kind::ycsb: {
      wl::ycsb_config& y = d.ycsb;
      y.table_size = pick<std::uint64_t>(r, {512, 2048, 8192});
      y.ops_per_txn = static_cast<std::uint32_t>(r.next_in(2, 10));
      y.zipf_theta = pick(r, {0.0, 0.6, 0.9, 0.99});
      y.read_ratio = pick(r, {0.2, 0.5, 0.8});
      y.abort_ratio = pick(r, {0.0, 0.05, 0.2});
      y.dependent_ops = r.next_bool(0.4);
      y.multi_partition_ratio = pick(r, {0.0, 0.3});
      y.scan_ratio = r.next_bool(0.3) ? pick(r, {0.1, 0.3}) : 0.0;
      y.scan_len = static_cast<std::uint32_t>(r.next_in(16, 96));
      // Scans force the ordered index; the draw says what the table uses.
      y.index = y.scan_ratio > 0 ? storage::index_kind::ordered : index;
      y.partitions = c.partitions;
      d.batch_size = static_cast<std::uint32_t>(r.next_in(64, 512));
      break;
    }
    case wl_kind::bank:
      d.bank.accounts = pick<std::uint64_t>(r, {256, 1024, 4096});
      d.bank.max_transfer = pick<std::uint64_t>(r, {200, 900, 1500, 4000});
      d.bank.partitions = c.partitions;
      d.batch_size = static_cast<std::uint32_t>(r.next_in(64, 512));
      break;
    case wl_kind::tpcc: {
      wl::tpcc_config& t = d.tpcc;
      t.warehouses = r.next_bool(0.3) ? 2 : 1;
      t.partitions = c.partitions;
      t.initial_orders_per_district = 30;
      t.order_headroom_per_district = 400;
      t.scan_profiles = r.next_bool(0.5);
      t.invalid_item_ratio = pick(r, {0.01, 0.05, 0.2});
      t.index = index;
      if (r.next_bool(0.3)) {  // lift the read-only profiles
        t.order_status_ratio = 0.15;
        t.stock_level_ratio = 0.15;
      }
      d.item_replicated = r.next_bool(0.5);
      d.batch_size = static_cast<std::uint32_t>(r.next_in(96, 320));
      break;
    }
  }
  d.batches = static_cast<std::uint32_t>(r.next_in(2, 4));
  d.open_loop = r.next_bool(0.25);
  c.batch_size = d.batch_size;  // the session's batch former reads these
  c.batch_deadline_micros = static_cast<std::uint32_t>(r.next_in(100, 1000));
  if (d.queue_engine() && r.next_bool(0.3)) {
    d.kill_after = static_cast<std::uint32_t>(r.next_in(1, d.batches));
    c.checkpoint_interval_batches =
        static_cast<std::uint32_t>(r.next_in(0, 2));
    c.log_verify_hash = r.next_bool(0.5);
    c.group_commit_micros = static_cast<std::uint32_t>(r.next_in(50, 500));
  }
  return d;
}

// --- the stream -----------------------------------------------------------

/// A draw's workload, its loaded database and its batches. The plans are
/// never run: every run takes fresh copies, so no run sees another's
/// runtime state.
struct stream {
  std::unique_ptr<wl::workload> w;
  std::unique_ptr<storage::database> db0;
  std::vector<txn::batch> plans;
};

stream make_stream(const draw& d) {
  stream s;
  switch (d.kind) {
    case wl_kind::ycsb:
      s.w = std::make_unique<wl::ycsb>(d.ycsb);
      break;
    case wl_kind::bank:
      s.w = std::make_unique<wl::bank>(d.bank);
      break;
    case wl_kind::tpcc:
      s.w = std::make_unique<wl::tpcc>(d.tpcc);
      break;
  }
  s.db0 = testutil::make_loaded_db(*s.w);
  if (!d.item_replicated) s.db0->by_name("item").set_replicated(false);
  common::rng r(d.seed ^ 0x5eed5eedull);
  for (std::uint32_t i = 0; i < d.batches; ++i) {
    s.plans.push_back(s.w->make_batch(r, d.batch_size, i));
  }
  return s;
}

std::unique_ptr<txn::txn_desc> copy_plan(const txn::txn_desc& t) {
  auto c = std::make_unique<txn::txn_desc>();
  c->proc = t.proc;
  c->args = t.args;
  c->frags = t.frags;
  return c;
}

/// Fresh copies of the first `n` plans.
std::deque<txn::batch> copy_batches(const stream& s, std::uint32_t n) {
  std::deque<txn::batch> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    txn::batch& b = out.emplace_back(s.plans[i].id());
    for (const auto& tp : s.plans[i]) b.add(copy_plan(*tp));
  }
  return out;
}

using fingerprints = std::vector<std::vector<std::uint64_t>>;

void append_fingerprints(const txn::batch& b, fingerprints& out) {
  const auto fp = testutil::result_fingerprints(b);
  out.insert(out.end(), fp.begin(), fp.end());
}

struct outcome {
  std::uint64_t hash = 0;
  fingerprints fps;  ///< one per transaction, in stream order
};

outcome serial_run(const stream& s, std::uint32_t n) {
  auto db = s.db0->clone();
  auto batches = copy_batches(s, n);
  outcome out;
  for (auto& b : batches) {
    testutil::replay_in_seq_order(*db, b);
    append_fingerprints(b, out.fps);
  }
  out.hash = db->state_hash();
  return out;
}

/// Serial model of read-committed isolation: each batch runs serially in
/// sequence order, except that the reads the planner routes to read queues
/// see the batch-start image at the row they resolve to before the batch.
outcome serial_rc_run(const stream& s, std::uint32_t n) {
  auto db = s.db0->clone();
  auto batches = copy_batches(s, n);
  outcome out;
  for (auto& b : batches) {
    const storage::dual_version_store image(*db);
    for (auto& tp : b) {
      const std::uint64_t needed = core::writer_needed_slots(*tp);
      for (auto& f : tp->frags) {
        if (core::goes_to_read_queue(f, needed)) {
          f.rid = db->at(f.table).lookup(f.key, f.part);
        }
      }
    }
    proto::inplace_host host(*db, nullptr, nullptr, &image);
    for (auto& tp : b) proto::run_txn_serially(*tp, host);
    append_fingerprints(b, out.fps);
  }
  out.hash = db->state_hash();
  return out;
}

// --- the engine run -------------------------------------------------------

using testutil::counter;

// Compiled-out observability reads every counter as 0.
#if defined(QUECC_OBS_COMPILED_OUT)
constexpr bool kCounted = false;
#else
constexpr bool kCounted = true;
#endif

/// The engine counters a draw checks.
struct counters {
  std::uint64_t logged = 0;
  std::uint64_t cascades = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t parked = 0;
  std::uint64_t commit_wait = 0;

  static counters now() {
    return {counter("spec.logged_batches_total"),
            counter("spec.cascade_aborts_total"),
            counter("spec.recoveries_total"),
            counter("engine.exec_parked_total"),
            counter("engine.exec_commit_wait_nanos")};
  }
  counters since(const counters& before) const {
    return {logged - before.logged, cascades - before.cascades,
            recoveries - before.recoveries, parked - before.parked,
            commit_wait - before.commit_wait};
  }
};

struct engine_run {
  std::unique_ptr<storage::database> db;  ///< the state the run left
  outcome out;
  common::run_metrics m;
  std::deque<txn::batch> batches;  ///< closed loop: the batches as run
  counters grew;                   ///< counter deltas over the run
  std::uint64_t last_planned = 0;  ///< queue engines: last batch's entries
};

const core::phase_stats* last_phases(const proto::engine& eng) {
  if (const auto* q = dynamic_cast<const core::quecc_engine*>(&eng)) {
    return &q->last_phases();
  }
  if (const auto* q = dynamic_cast<const dist::dist_quecc_engine*>(&eng)) {
    return &q->last_phases();
  }
  return nullptr;
}

/// Runs the draw's first `n` batches through `engine` configured by `cfg`
/// on a fresh database, closed or open loop.
engine_run run_engine(const stream& s, const std::string& engine,
                      const common::config& cfg, bool open_loop,
                      std::uint32_t n) {
  engine_run run;
  const counters before = counters::now();
  run.db = s.db0->clone();
  {
    auto eng = proto::make_engine(engine, *run.db, cfg);
    if (open_loop) {
      std::vector<proto::session::ticket> tickets;
      {
        proto::session sess(*eng, cfg);
        for (std::uint32_t i = 0; i < n; ++i) {
          for (const auto& tp : s.plans[i]) {
            tickets.push_back(sess.submit(copy_plan(*tp)));
          }
        }
        sess.close();
        run.m = sess.metrics();
      }
      for (const auto& t : tickets) {
        const auto res = t.wait();
        std::vector<std::uint64_t> fp{static_cast<std::uint64_t>(res.status)};
        if (res.status != txn::txn_status::aborted) {
          fp.insert(fp.end(), res.slots.begin(), res.slots.end());
        }
        run.out.fps.push_back(std::move(fp));
      }
    } else {
      run.batches = copy_batches(s, n);
      for (auto& b : run.batches) eng->submit_batch(b, run.m);
      while (eng->drain_batch()) {
      }
      eng->sync_durable();
      for (const auto& b : run.batches) append_fingerprints(b, run.out.fps);
      if (const auto* ph = last_phases(*eng)) {
        run.last_planned = ph->planned_fragments;
      }
    }
  }
  run.out.hash = run.db->state_hash();
  run.grew = counters::now().since(before);
  return run;
}

/// Whether `t` keeps an abortable fragment past the plan-time checks: the
/// planner decides input-free abortable reads of replicated tables itself.
bool runtime_abortable(const txn::txn_desc& t, const storage::database& db) {
  if (t.aborted_at_plan()) return false;
  for (const auto& f : t.frags) {
    if (!f.abortable) continue;
    const bool at_plan = f.kind == txn::op_kind::read && f.input_mask == 0 &&
                         db.at(f.table).replicated();
    if (!at_plan) return true;
  }
  return false;
}

/// Queue entries the planners make for `b`: none for a transaction aborted
/// at plan time or a check decided there, one per partition for a kAllParts
/// scan, one for every other fragment.
std::uint64_t queued_entries(const txn::batch& b, table_id_t item,
                             part_id_t parts) {
  std::uint64_t n = 0;
  for (const auto& tp : b) {
    if (tp->aborted()) continue;
    for (const auto& f : tp->frags) {
      if (f.table == item) continue;
      n += f.part == txn::kAllParts ? parts : 1;
    }
  }
  return n;
}

// --- the check ------------------------------------------------------------

void check_draw(const draw& d) {
  const stream s = make_stream(d);
  const std::uint32_t n = d.run_batches();
  const std::uint64_t txns = std::uint64_t{n} * d.batch_size;
  const outcome serial = serial_run(s, n);

  // Read-committed references, run before the counters are sampled.
  fingerprints rc_want;
  if (d.rc() && !d.open_loop) {
    common::config ref = d.cfg;
    ref.planner_threads = ref.executor_threads = 1;
    ref.nodes = 1;
    ref.pipeline_depth = 1;
    ref.execution = exec_model::conservative;
    const engine_run cons = run_engine(s, "quecc", ref, false, n);
    EXPECT_EQ(cons.out.hash, serial.hash);
    const outcome model = serial_rc_run(s, n);
    EXPECT_EQ(model.hash, serial.hash);
    EXPECT_EQ(cons.out.fps, model.fps) << "the reference run left the model";
    rc_want = cons.out.fps;
  }

  testutil::temp_dir dir;
  common::config cfg = d.cfg;
  if (d.durable()) {
    cfg.durable = true;
    cfg.log_dir = dir.path;
  }
  const engine_run run = run_engine(s, d.engine, cfg, d.open_loop, n);

  // State and results.
  EXPECT_EQ(run.out.hash, serial.hash) << "state differs from serial";
  EXPECT_EQ(run.m.committed + run.m.aborted, txns);
  ASSERT_EQ(run.out.fps.size(), serial.fps.size());
  if (!d.rc()) {
    EXPECT_EQ(run.out.fps, serial.fps) << "results differ from serial";
  } else if (!d.open_loop) {
    EXPECT_EQ(run.out.fps, rc_want) << "read-committed results differ";
  }

  // Counters.
  if (kCounted && d.queue_engine()) {
    const bool spec = d.cfg.execution == exec_model::speculative;
    std::uint64_t abortable_batches = 0;
    bool any_abortable = false;
    for (const auto& b : run.batches) {
      bool has = false;
      for (const auto& tp : b) has = has || runtime_abortable(*tp, *s.db0);
      abortable_batches += has ? 1 : 0;
      any_abortable = any_abortable || has;
    }
    if (!spec) {
      EXPECT_EQ(run.grew.logged, 0u);
      EXPECT_EQ(run.grew.cascades, 0u);
    } else if (!d.open_loop) {
      EXPECT_EQ(run.grew.logged, abortable_batches);
    }
    if (!d.open_loop && !any_abortable) {
      EXPECT_EQ(run.grew.recoveries, 0u);
      EXPECT_EQ(run.grew.commit_wait, 0u);
    }
    // Dependent ops chain slots across the executors of a node, which
    // split a partition's keys by hash; ordered tables route by partition
    // (core/planner.cpp), and a single-partition transaction stays on one
    // node.
    if (!d.open_loop && d.kind == wl_kind::ycsb && d.ycsb.dependent_ops &&
        d.ycsb.index == storage::index_kind::hash &&
        d.cfg.executor_threads >= 2) {
      EXPECT_GT(run.grew.parked, 0u) << "a contended draw never parked";
    }
  }
  if (d.engine != "quecc") {
    if (d.cfg.nodes > 1) {
      EXPECT_GT(run.m.messages, 0u);
    } else {
      EXPECT_EQ(run.m.messages, 0u);
    }
  }

  // Workload invariants and plan-time aborts.
  if (d.kind == wl_kind::bank) {
    EXPECT_EQ(dynamic_cast<const wl::bank&>(*s.w).total_balance(*run.db),
              d.bank.accounts * d.bank.initial_balance);
  }
  if (d.kind == wl_kind::tpcc) {
    std::string why;
    EXPECT_TRUE(
        dynamic_cast<const wl::tpcc&>(*s.w).check_consistency(*run.db, &why))
        << why;
  }
  if (d.kind == wl_kind::tpcc && d.item_replicated && d.queue_engine() &&
      !d.open_loop) {
    for (const auto& b : run.batches) {
      for (const auto& tp : b) {
        if (tp->aborted()) {
          EXPECT_TRUE(tp->aborted_at_plan()) << "batch " << b.id() << " seq "
                                             << tp->seq;
        }
      }
    }
    const auto item = dynamic_cast<const wl::tpcc&>(*s.w).t_item();
    EXPECT_EQ(run.last_planned,
              queued_entries(run.batches.back(), item, d.cfg.partitions));
  }

  // Durable: the log recovers the committed prefix into a fresh database.
  if (d.durable()) {
    auto db = s.db0->clone();
    auto eng = proto::make_engine(d.engine, *db, d.cfg);
    const auto res = log::recover(dir.path, *db, *eng, log::resolver_for(*s.w));
    EXPECT_EQ(res.state_hash, serial.hash) << "recovered state differs";
    EXPECT_EQ(db->state_hash(), serial.hash);
    EXPECT_EQ(res.txns_applied, txns);
    EXPECT_EQ(res.batches_skipped, 0u);
    // A session may form more batches than kill_after, never fewer.
    const auto every = d.cfg.checkpoint_interval_batches;
    if (every == 0) {
      EXPECT_FALSE(res.checkpoint_loaded);
    } else if (d.kill_after >= every) {
      EXPECT_TRUE(res.checkpoint_loaded);
    }
  }
}

// --- the tests ------------------------------------------------------------

class Oracle : public testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Draws, Oracle,
                         testing::Range<std::uint64_t>(0, kDraws));

TEST_P(Oracle, MatchesSerial) {
  // The k-th run of draw i in this process is repetition k of
  // --gtest_repeat, which continues with seed k*kDraws + i.
  static std::vector<std::uint64_t> runs(kDraws);
  const std::uint64_t rep = runs[GetParam()]++;
  const std::uint64_t seed = rep * kDraws + GetParam();
  const draw d = make_draw(seed);
  SCOPED_TRACE(d.describe() + "\n  replay: test_oracle --gtest_filter=" +
               "Draws/Oracle.MatchesSerial/" + std::to_string(GetParam()) +
               " --gtest_repeat=" + std::to_string(rep + 1));
  check_draw(d);
}

// --- the generator itself -------------------------------------------------

TEST(OracleGenerator, SameSeedSameDrawAndStream) {
  // Loading dominates a TPC-C stream, so one TPC-C draw stands for all.
  bool tpcc_checked = false;
  for (std::uint64_t seed = 0; seed < kDraws; ++seed) {
    const draw a = make_draw(seed);
    const draw b = make_draw(seed);
    ASSERT_EQ(a.describe(), b.describe());
    if (a.kind == wl_kind::tpcc) {
      if (tpcc_checked) continue;
      tpcc_checked = true;
    }
    const stream sa = make_stream(a);
    const stream sb = make_stream(b);
    EXPECT_EQ(sa.db0->state_hash(), sb.db0->state_hash()) << a.describe();
    ASSERT_EQ(sa.plans.size(), sb.plans.size());
    for (std::size_t i = 0; i < sa.plans.size(); ++i) {
      std::vector<std::byte> pa, pb;
      log::encode_batch(sa.plans[i], pa);
      log::encode_batch(sb.plans[i], pb);
      EXPECT_EQ(pa, pb) << a.describe() << " batch " << i;
    }
  }
  EXPECT_TRUE(tpcc_checked);
}

TEST(OracleGenerator, DrawsCoverEveryAxis) {
  // The fixed seed set must reach every engine, workload, isolation level,
  // execution model, arrival mode, depth, and durable kill points.
  std::set<std::string> seen;
  for (std::uint64_t seed = 0; seed < kDraws; ++seed) {
    const draw d = make_draw(seed);
    seen.insert("engine " + d.engine);
    seen.insert("workload " + std::to_string(static_cast<int>(d.kind)));
    seen.insert(std::string("iso ") + common::to_string(d.cfg.iso));
    seen.insert(std::string("exec ") + common::to_string(d.cfg.execution));
    seen.insert("depth " + std::to_string(d.cfg.pipeline_depth));
    seen.insert(d.open_loop ? "open" : "closed");
    if (d.durable()) seen.insert("durable");
    if (d.kind == wl_kind::tpcc) {
      seen.insert(d.item_replicated ? "item replicated" : "item run-time");
    }
    if (d.kind == wl_kind::ycsb && d.ycsb.abort_ratio > 0 && d.rc() &&
        d.cfg.execution == exec_model::speculative && !d.open_loop) {
      seen.insert("rc speculative aborts");
    }
    if ((d.kind == wl_kind::ycsb && d.ycsb.scan_ratio > 0) ||
        (d.kind == wl_kind::tpcc && d.tpcc.scan_profiles)) {
      seen.insert("scans " + d.engine);
    }
    if (d.engine == "dist-calvin" && d.cfg.nodes == 1) {
      seen.insert("calvin one node");
    }
  }
  for (const char* want :
       {"engine quecc", "engine dist-quecc", "engine dist-calvin",
        "workload 0", "workload 1", "workload 2", "iso serializable",
        "iso read-committed", "exec speculative", "exec conservative",
        "depth 1", "depth 2", "depth 3", "depth 4", "open", "closed",
        "durable", "item replicated", "item run-time", "rc speculative aborts",
        "scans quecc", "scans dist-quecc", "scans dist-calvin",
        "calvin one node"}) {
    EXPECT_TRUE(seen.count(want)) << want;
  }
}

}  // namespace
}  // namespace quecc
