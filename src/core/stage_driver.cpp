#include "core/stage_driver.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/thread_util.hpp"
#include "log/checkpoint.hpp"
#include "log/log_writer.hpp"
#include "log/plan_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quecc::core {

namespace {

/// Bind every table's arenas to the NUMA nodes the placement plan assigns
/// (plan.node_of_arena — the socket of the executor owning the arena's
/// partition) and publish the result as storage.arena_node.<s> gauges.
/// Best-effort: single-node machines record node 0 and move nothing. Call
/// before workers start (the binding migrates loader-touched pages).
void bind_arena_memory(storage::database& db,
                       const common::placement_plan& plan) {
  for (table_id_t t = 0; t < db.table_count(); ++t) {
    storage::table& tb = db.at(t);
    for (part_id_t s = 0; s < tb.shard_count(); ++s) {
      tb.bind_shard_to_node(s, plan.node_of_arena(s));
      // One gauge per arena index (shared across tables — they stripe
      // identically), capped well below the registry's gauge budget.
      if (t == 0 && s < 32) {
        const obs::gauge g("storage.arena_node." + std::to_string(s));
        g.set(tb.shard_numa_node(s));
      }
    }
  }
}

}  // namespace

void pipeline::build(const common::config& cfg, storage::database& db,
                     storage::dual_version_store* committed) {
  const bool rc = cfg.iso == common::isolation::read_committed;
  const worker_id_t planner_n = cfg.planner_threads;
  const worker_id_t execs = cfg.executor_threads;

  planners.reserve(planner_n);
  for (worker_id_t p = 0; p < planner_n; ++p) {
    planners.emplace_back(p, cfg, db);
  }
  executors.reserve(execs);
  for (worker_id_t e = 0; e < execs; ++e) {
    executors.push_back(std::make_unique<executor>(e, cfg, db, committed));
  }

  // One slot per pipeline stage-in-flight. Pre-size every queue container
  // so addresses are stable for the driver lifetime; executors read
  // through the raw pointers wired up here.
  slots.reserve(cfg.pipeline_depth);
  for (std::uint32_t s = 0; s < cfg.pipeline_depth; ++s) {
    auto slot = std::make_unique<batch_slot>();
    slot->plan_outs.resize(planner_n);
    for (worker_id_t p = 0; p < planner_n; ++p) {
      slot->plan_outs[p].resize(execs, rc);
    }
    // Executor e drains planner 0's queue for it fully, then planner 1's,
    // and so on. Planners own contiguous seq slices in planner order and
    // fill each queue in seq order, so the global replay order (planner,
    // queue position) is batch sequence order — the paradigm's
    // serial-equivalent order.
    slot->exec_queues.resize(execs);
    for (worker_id_t e = 0; e < execs; ++e) {
      for (worker_id_t p = 0; p < planner_n; ++p) {
        slot->exec_queues[e].push_back(&slot->plan_outs[p].conflict[e]);
      }
    }
    if (rc) {
      for (worker_id_t p = 0; p < planner_n; ++p) {
        for (worker_id_t e = 0; e < execs; ++e) {
          slot->read_queues.push_back(&slot->plan_outs[p].reads[e]);
        }
      }
    }
    slots.push_back(std::move(slot));
  }
}

void batch_slot::resolve_read_queues(storage::database& db) {
  for (const frag_queue* q : read_queues) {
    for (const frag_entry& e : *q) {
      if (e.f->kind != txn::op_kind::insert) {
        // Pre-execution quiescent point: partition-local, lock-free.
        e.f->rid = db.at(e.f->table).lookup(e.f->key, e.f->part);
      }
    }
  }
}

stage_driver::stage_driver(storage::database& db, const common::config& cfg,
                           const char* thread_tag, stage_hooks* hooks)
    : db_(db), cfg_(cfg), thread_tag_(thread_tag), hooks_(hooks), spec_(db) {
  cfg_.validate();
  use_async_epilogue_ = cfg_.async_epilogue && cfg_.pipeline_depth >= 2;
  if (cfg_.iso == common::isolation::read_committed) {
    committed_ = std::make_unique<storage::dual_version_store>(db_);
  }
  if (cfg_.durable) {
    wal_ = std::make_unique<log::log_writer>(
        cfg_.log_dir,
        log::writer_options{cfg_.group_commit_micros, cfg_.log_segment_bytes,
                            cfg_.log_resume});
    ckpt_ = std::make_unique<log::checkpointer>(cfg_.log_dir);
    durable_stream_pos_ = cfg_.log_resume_stream_pos;
  }
  pipe_.build(cfg_, db_, committed_.get());

  if (cfg_.pin_threads || cfg_.numa_bind) {
    plan_ = common::compute_placement(
        common::system_topology(),
        {cfg_.planner_threads, cfg_.executor_threads, cfg_.pin_mode});
  }
  // Bind arenas before workers start: the loader already faulted the slab
  // pages, so the move must finish while nothing reads them.
  if (cfg_.numa_bind) bind_arena_memory(db_, plan_);

  const worker_id_t planners = cfg_.planner_threads;
  const worker_id_t execs = cfg_.executor_threads;
  threads_.reserve(static_cast<std::size_t>(planners) + execs + 1);
  for (worker_id_t p = 0; p < planners; ++p) {
    threads_.emplace_back([this, p] { planner_main(p); });
  }
  for (worker_id_t e = 0; e < execs; ++e) {
    threads_.emplace_back([this, e] { executor_main(e); });
  }
  if (use_async_epilogue_) {
    threads_.emplace_back([this] { epilogue_main(); });
  }
}

stage_driver::~stage_driver() {
  // Retire anything the caller left in flight (the submit contract says
  // batches and metrics outlive their drain, so the pointers are valid).
  while (drain_batch()) {
  }
  {
    common::mutex_lock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void stage_driver::planner_main(worker_id_t p) {
  common::name_self(std::string(thread_tag_) + "-plan-" + std::to_string(p));
  if (cfg_.pin_threads) common::pin_self_to(plan_.planner_cpu[p]);
  for (std::uint64_t n = 0;; ++n) {
    {
      common::mutex_lock lk(mu_);
      while (!(submitted_ > n || stop_)) cv_.wait(lk);
      if (stop_ && submitted_ <= n) return;
    }
    // Planners need no start barrier: each writes only its own plan_outs
    // entry, and a slot is only handed out again (submitted_) after its
    // previous batch drained. Planner p may be a batch ahead of planner q.
    batch_slot& s = *pipe_.slots[n % cfg_.pipeline_depth];
    const std::uint64_t t0 = common::now_nanos();
    pipe_.planners[p].plan(*s.batch, s.plan_outs[p]);
    const std::uint64_t t1 = common::now_nanos();
    static const obs::histogram plan_busy("engine.plan_busy_nanos");
    plan_busy.record_nanos(t1 - t0);
    obs::record_span(obs::trace_stage::plan, t0, t1 - t0, s.batch->id(),
                     static_cast<std::uint32_t>(n % cfg_.pipeline_depth));
    // relaxed: stat counter; read at the drain quiescent point, ordered by
    // the plan_pending acq_rel countdown below.
    s.plan_busy_nanos.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (s.plan_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // The last planner runs the after-plan hook before marking the batch
      // ready, so no executor starts ahead of what the hook delivers.
      if (hooks_ != nullptr) hooks_->after_plan(*s.batch);
      common::mutex_lock lk(mu_);
      s.ready_nanos = common::now_nanos();
      ready_ = n + 1;  // planners retire batches in order (see above)
      cv_.notify_all();
    }
  }
}

void stage_driver::executor_main(worker_id_t e) {
  common::name_self(std::string(thread_tag_) + "-exec-" + std::to_string(e));
  if (cfg_.pin_threads) {
    common::pin_self_to(plan_.executor_cpu[e]);
  }
  executor& ex = *pipe_.executors[e];
  for (std::uint64_t n = 0;; ++n) {
    batch_slot* sp;
    {
      common::mutex_lock lk(mu_);
      // Execution stays sequential across slots: batch n runs only after
      // batch n-1's state-mutating epilogue half (published_ == n) — the
      // per-slot inter-batch quiescent point that read-committed
      // publishing, speculation recovery, and checkpoints rely on. Only
      // the previous batch's durable tail (fsync wait) and post-publish
      // hook may still be in flight on the epilogue worker.
      while (!((ready_ > n && published_ == n) || stop_)) cv_.wait(lk);
      if (stop_ && !(ready_ > n && published_ == n)) return;
      sp = pipe_.slots[n % cfg_.pipeline_depth].get();
      if (sp->exec_start_nanos == 0) {
        sp->exec_start_nanos = common::now_nanos();
        // First executor in, still under mu_ (batch n-1 published, nobody
        // else touching the database): resolve the RC read-queue rids at
        // the quiescent point — they are claimed by any executor, so
        // execution-time lookups would race with this batch's own
        // inserts/erases.
        sp->resolve_read_queues(db_);
      }
    }
    batch_slot& s = *sp;
    const std::uint64_t t0 = common::now_nanos();
    ex.begin_batch(s.submit_nanos);
    ex.run_conflict_queues(s.exec_queues[e]);
    if (!s.read_queues.empty()) {
      ex.run_read_queues(s.read_queues, s.read_cursor);
    }
    const std::uint64_t t1 = common::now_nanos();
    static const obs::histogram exec_busy("engine.exec_busy_nanos");
    exec_busy.record_nanos(t1 - t0);
    obs::record_span(obs::trace_stage::exec, t0, t1 - t0, s.batch->id(),
                     static_cast<std::uint32_t>(n % cfg_.pipeline_depth));
    // relaxed: stat counter; read at the drain quiescent point, ordered by
    // the exec_pending acq_rel countdown below.
    s.exec_busy_nanos.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (s.exec_pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      common::mutex_lock lk(mu_);
      s.exec_end_nanos = common::now_nanos();
      exec_done_ = n + 1;
      cv_.notify_all();
    }
  }
}

void stage_driver::submit_batch(txn::batch& b, common::run_metrics& m) {
  // Ring full: the caller fell behind; retire the oldest batch on its
  // behalf (same thread — equivalent to the caller invoking drain_batch).
  while (true) {
    {
      common::mutex_lock lk(mu_);
      if (submitted_ - drained_ < cfg_.pipeline_depth) break;
    }
    drain_batch();
  }
  batch_slot* sp;
  std::uint64_t n;
  {
    common::mutex_lock lk(mu_);
    n = submitted_;
    sp = pipe_.slots[n % cfg_.pipeline_depth].get();
    batch_slot& s = *sp;
    s.batch = &b;
    s.metrics = &m;
    s.submit_nanos = common::now_nanos();
    s.ready_nanos = s.exec_start_nanos = s.exec_end_nanos = 0;
    // relaxed: slot resets are published to the workers by ++submitted_
    // under mu_ below, not by these stores themselves.
    s.read_cursor.store(0, std::memory_order_relaxed);
    s.plan_busy_nanos.store(0, std::memory_order_relaxed);
    s.exec_busy_nanos.store(0, std::memory_order_relaxed);
    s.plan_pending.store(cfg_.planner_threads, std::memory_order_relaxed);
    s.exec_pending.store(cfg_.executor_threads, std::memory_order_relaxed);
    ++submitted_;  // publishes the slot fields to the plan stage
    cv_.notify_all();
  }
  // Batch (command) record at plan time: the serialized plan is the whole
  // redo log — execution is a deterministic function of it. Encoding and
  // appending overlap the planning the workers just started (the codec
  // reads no field planners write). A small batch can therefore retire —
  // commit record appended — before this append lands, which is why
  // sync_durable() waits for the batch record too. The lsn is published
  // under mu_: a drain on another thread waits for it (logged_).
  if (wal_) {
    const std::uint64_t lsn = log_batch_record(b);
    common::mutex_lock lk(mu_);
    sp->batch_lsn = lsn;
    logged_ = n + 1;
    cv_.notify_all();
  }
}

void stage_driver::epilogue_main() {
  common::name_self(std::string(thread_tag_) + "-epilogue");
  if (cfg_.pin_threads) common::pin_self_to(plan_.epilogue_cpu);
  for (std::uint64_t n = 0;; ++n) {
    {
      common::mutex_lock lk(mu_);
      while (!(exec_done_ > n || stop_)) cv_.wait(lk);
      if (stop_ && exec_done_ <= n) return;
    }
    run_epilogue(n);
  }
}

void stage_driver::run_epilogue(std::uint64_t n) {
  batch_slot& s = *pipe_.slots[n % cfg_.pipeline_depth];
  txn::batch& b = *s.batch;
  common::run_metrics& m = *s.metrics;

  // State-mutating half at the quiescent point: executors for batch n+1
  // wait on published_, so the executor logs read here are still batch
  // n's and nothing observes the database mid-recovery. Planners may
  // concurrently plan batches n+1.. — planning reads only replicated
  // tables, which nothing writes, and writes only its own batch's runtime
  // fields (see planner.hpp).
  const std::uint64_t epi0 = common::now_nanos();
  if (hooks_ != nullptr) hooks_->pre_publish(b);
  last_rec_ = batch_epilogue(b, m);
  // Commit record after the commit epilogue (statuses are final, and with
  // log_verify_hash it snapshots the post-recovery state hash); the
  // group-commit flusher picks it up. Epilogue order == submission order,
  // so commit records retain batch order in the log even while later
  // batches' records interleave between them. A due checkpoint runs here
  // too — still pre-publish, because it scans the database.
  std::uint64_t commit_lsn = 0;
  if (wal_) commit_lsn = log_commit_record(b);

  {
    common::mutex_lock lk(mu_);
    published_ = n + 1;  // releases executors into batch n+1
    cv_.notify_all();
  }

  // Post-publish hook and durable tail, overlapped with batch n+1's
  // execution (async mode; the inline epilogue keeps the contract where
  // sync_durable() or the flusher timer absorbs the fsync).
  if (hooks_ != nullptr) hooks_->post_publish(b, m);
  if (wal_ && use_async_epilogue_) {
    const std::uint64_t f0 = common::now_nanos();
    wal_->wait_durable(commit_lsn);
    obs::record_span(obs::trace_stage::fsync, f0, common::now_nanos() - f0,
                     b.id(),
                     static_cast<std::uint32_t>(n % cfg_.pipeline_depth));
  }
  const std::uint64_t epi1 = common::now_nanos();
  static const obs::histogram epi_hist("engine.epilogue_nanos");
  epi_hist.record_nanos(epi1 - epi0);
  static const obs::counter drained_ctr("engine.batches_drained_total");
  drained_ctr.inc();
  obs::record_span(obs::trace_stage::epilogue, epi0, epi1 - epi0, b.id(),
                   static_cast<std::uint32_t>(n % cfg_.pipeline_depth));

  // Per-slot phase stats (epilogue-owner state: only ever written here, on
  // the one thread that retires batches).
  phase_stats ph;
  ph.plan_seconds = static_cast<double>(s.ready_nanos - s.submit_nanos) / 1e9;
  ph.exec_seconds =
      static_cast<double>(s.exec_end_nanos - s.exec_start_nanos) / 1e9;
  ph.epilogue_seconds = static_cast<double>(epi1 - epi0) / 1e9;
  // relaxed: quiescent point — every worker's countdown (acq_rel) landed
  // before exec_done_/ready_ advanced under mu_.
  ph.plan_busy_seconds =
      static_cast<double>(s.plan_busy_nanos.load(std::memory_order_relaxed)) /
      1e9;
  ph.exec_busy_seconds =
      static_cast<double>(s.exec_busy_nanos.load(std::memory_order_relaxed)) /
      1e9;
  for (const auto& po : s.plan_outs) ph.planned_fragments += po.planned_frags;
  ph.queues = static_cast<std::uint64_t>(cfg_.planner_threads) *
              (cfg_.executor_threads +
               (committed_ ? cfg_.executor_threads : 0));
  // Overlap: intersect this batch's planning window with the execution
  // windows of the batches it could have overlapped (the previous
  // pipeline_depth - 1 retired batches).
  for (const auto& [x0, x1] : recent_exec_windows_) {
    const std::uint64_t lo = std::max(s.submit_nanos, x0);
    const std::uint64_t hi = std::min(s.ready_nanos, x1);
    if (hi > lo) ph.overlap_seconds += static_cast<double>(hi - lo) / 1e9;
  }
  recent_exec_windows_.emplace_back(s.exec_start_nanos, s.exec_end_nanos);
  while (recent_exec_windows_.size() >= cfg_.pipeline_depth) {
    recent_exec_windows_.pop_front();
  }
  phases_ = ph;

  m.batches += 1;
  m.plan_busy_seconds += ph.plan_busy_seconds;
  m.exec_busy_seconds += ph.exec_busy_seconds;
  m.epilogue_busy_seconds += ph.epilogue_seconds;
  m.pipeline_overlap_seconds += ph.overlap_seconds;
  // Elapsed time without double counting across overlapping batches:
  // charge each retirement the wall time since the previous one, clipped
  // to this batch's own submission (so idle gaps between lockstep
  // run_batch calls are not charged — depth 1 matches a plain stopwatch
  // exactly).
  const std::uint64_t drain_nanos = common::now_nanos();
  const std::uint64_t from = std::max(s.submit_nanos, last_drain_nanos_);
  m.elapsed_seconds += static_cast<double>(drain_nanos - from) / 1e9;
  last_drain_nanos_ = drain_nanos;

  {
    common::mutex_lock lk(mu_);
    s.commit_lsn = commit_lsn;
    epilogue_done_ = n + 1;
    cv_.notify_all();
  }
}

bool stage_driver::drain_batch() {
  std::uint64_t n;
  batch_slot* sp;
  {
    common::mutex_lock lk(mu_);
    if (drained_ == submitted_) return false;  // nothing in flight
    n = drained_;
    if (use_async_epilogue_) {
      // Third stage owns the epilogue: just await its counter.
      while (epilogue_done_ <= n) cv_.wait(lk);
    } else {
      while (exec_done_ <= n) cv_.wait(lk);
    }
    // A submitter on another thread may still be appending the batch
    // record after it published the slot.
    if (wal_) {
      while (logged_ <= n) cv_.wait(lk);
    }
    sp = pipe_.slots[n % cfg_.pipeline_depth].get();
  }
  if (!use_async_epilogue_) run_epilogue(n);

  {
    common::mutex_lock lk(mu_);
    drained_lsns_ = {sp->batch_lsn, sp->commit_lsn};
    sp->batch = nullptr;
    sp->metrics = nullptr;
    drained_ = n + 1;  // frees the slot for submit_batch
    cv_.notify_all();
  }
  return true;
}

void stage_driver::run_batch(txn::batch& b, common::run_metrics& m) {
  submit_batch(b, m);
  while (drain_batch()) {
  }
}

recovery_stats stage_driver::batch_epilogue(txn::batch& b,
                                            common::run_metrics& m) {
  // Speculative recovery: resolve speculation dependencies (cascading
  // aborts + deterministic re-execution) of the aborts decided at run
  // time; transactions aborted at plan time ran nothing. Conservative
  // execution cannot expose dirty data, so aborted transactions already
  // left no effects.
  recovery_stats rec{};
  if (cfg_.execution == common::exec_model::speculative) {
    std::vector<exec_logs*> logs;
    logs.reserve(pipe_.executors.size());
    for (auto& ex : pipe_.executors) logs.push_back(&ex->logs());
    rec = spec_.recover(b, logs);
    m.cc_aborts += rec.cascades;
    static const obs::counter recoveries("spec.recoveries_total");
    static const obs::counter cascades("spec.cascade_aborts_total");
    static const obs::counter reexec("spec.reexecutions_total");
    static const obs::counter redo("spec.full_redo_total");
    static const obs::counter split("spec.split_records_total");
    cascades.inc(rec.cascades);
    reexec.inc(rec.reexecuted);
    if (rec.full_redo) redo.inc();
    split.inc(rec.split_records);
    // Batches without run-time logic aborts recover (and time) nothing.
    if (rec.logic_aborts > 0) {
      recoveries.inc();
      static const obs::histogram index_h("spec.index_nanos");
      static const obs::histogram taint_h("spec.taint_nanos");
      static const obs::histogram rollback_h("spec.rollback_nanos");
      static const obs::histogram reexec_h("spec.reexec_nanos");
      index_h.record_nanos(rec.index_nanos);
      taint_h.record_nanos(rec.taint_nanos);
      rollback_h.record_nanos(rec.rollback_nanos);
      reexec_h.record_nanos(rec.reexec_nanos);
    }
  }

  for (auto& t : b) {
    if (t->aborted()) {
      m.aborted += 1;
    } else {
      t->status.store(txn::txn_status::committed, std::memory_order_release);
      m.committed += 1;
    }
  }

  // Read-committed: publish this batch's dirty rows into the committed
  // image so the next batch's read queues observe them.
  if (committed_) {
    // Dedup per table: rids use their high bits for the shard (see
    // table.hpp), so packing (table, rid) into one word would collide.
    std::vector<std::unordered_set<storage::row_id_t>> seen(db_.table_count());
    auto publish = [&](table_id_t table, storage::row_id_t rid) {
      if (seen[table].insert(rid).second) committed_->publish(db_, table, rid);
    };
    for (auto& ex : pipe_.executors) {
      for (const auto& u : ex->logs().undo.entries) {
        if (u.op != txn::op_kind::erase) publish(u.table, u.rid);
      }
    }
    for (const auto& [table, rid] : spec_.extra_dirty()) publish(table, rid);
  }

  for (auto& ex : pipe_.executors) {
    m.txn_latency.merge(ex->latency());
    ex->latency().reset();
  }
  return rec;
}

std::uint64_t stage_driver::log_batch_record(const txn::batch& b) {
  const std::uint64_t t0 = common::now_nanos();
  std::vector<std::byte> payload;
  log::encode_batch(b, payload);
  const std::uint64_t lsn = wal_->append(log::record_type::batch, payload);
  obs::record_span(obs::trace_stage::log_append, t0,
                   common::now_nanos() - t0, b.id());
  return lsn;
}

std::uint64_t stage_driver::log_commit_record(const txn::batch& b) {
  log::commit_info c;
  c.batch_id = b.id();
  c.txn_count = static_cast<std::uint32_t>(b.size());
  for (const auto& t : b) {
    if (t->aborted()) {
      ++c.aborted;
    } else {
      ++c.committed;
    }
  }
  durable_stream_pos_ += b.size();
  c.stream_pos = durable_stream_pos_;
  c.state_hash = cfg_.log_verify_hash ? db_.state_hash() : 0;

  std::vector<std::byte> payload;
  log::encode_commit(c, payload);
  const std::uint64_t lsn = wal_->append(log::record_type::commit, payload);
  wal_->request_flush();

  // Batch-boundary checkpoint: we sit at the inter-batch quiescent point
  // (executors for the next batch are parked on published_; planners write
  // no database state and read only replicated tables), so the snapshot is
  // transaction-consistent by construction. The new checkpoint covers every
  // logged batch; rotate and drop the old segments (checkpoint file +
  // manifest land before any deletion).
  if (cfg_.checkpoint_interval_batches > 0 &&
      ++batches_since_ckpt_ >= cfg_.checkpoint_interval_batches) {
    batches_since_ckpt_ = 0;
    ckpt_->take(db_, b.id(), durable_stream_pos_, wal_->segment_index() + 1);
    wal_->rotate_and_truncate();
    // Batches still in the pipeline appended their batch records at
    // submit time — into the segments just truncated. Re-append them so
    // recovery can replay past this checkpoint (their commit records land
    // later, in retirement order). Batch contents are frozen (planners
    // write only runtime fields, never fragments or arguments). In async
    // mode the submit thread may append the same batch record concurrently
    // — log_writer::append serializes the frames internally and replay is
    // last-record-wins per batch id, so the duplicate is benign in every
    // interleaving (an append that landed in a truncated segment is
    // re-covered here; one landing after the rotation sits in the fresh
    // segment on its own).
    std::uint64_t first_inflight, end_inflight;
    {
      common::mutex_lock lk(mu_);
      first_inflight = published_ + 1;  // published_ == the batch retiring
      end_inflight = submitted_;
    }
    for (std::uint64_t k = first_inflight; k < end_inflight; ++k) {
      // quecc-ok(phase): epilogue re-appends at the quiescent point;
      // batch contents are frozen (planners never write them)
      log_batch_record(*pipe_.slots[k % cfg_.pipeline_depth]->batch);
    }
  }
  return lsn;
}

void stage_driver::sync_durable() {
  // Both records of the drained batch: a small batch can retire before its
  // batch record lands (see submit_batch). Earlier batches' records all
  // precede the later of the two.
  if (wal_) {
    wal_->wait_durable(std::max(drained_lsns_.batch, drained_lsns_.commit));
  }
}

}  // namespace quecc::core
