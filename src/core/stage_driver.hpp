// The queue-oriented stage machine shared by the centralized engine
// ("quecc") and the distributed engine ("dist-quecc") — paper Figure 1.
//
// Lifecycle: construction spawns P planner threads and E executor threads
// that live for the driver's lifetime (CP.41). Batches flow through the
// two deterministic phases:
//
//     client batch --> [planning phase: P planners build P*E
//                       fragment queues]
//                  --> [execution phase: E executors drain queues in
//                       planner order, FIFO within a queue]
//                  --> [commit epilogue: speculative-abort recovery,
//                       status marking, read-committed publish]
//
// The phases are independent *across* batches, so the driver runs them as
// a three-stage pipeline over a ring of config::pipeline_depth batch
// slots: planners start on batch i+1 the moment batch i's queues are
// handed to the executors (submit_batch fills a free slot, the plan-stage
// group fills its queues, the exec-stage group drains them), and a
// dedicated epilogue worker retires batch i while batch i+1 already
// executes. The epilogue splits at the publication point:
//
//   * the state-mutating half (speculative recovery, status marking,
//     read-committed publish, checkpoints, commit-record append) runs at
//     the per-slot quiescent point — executors of batch i+1 stay parked on
//     published_ until it finishes, which is what keeps results
//     bit-identical at every depth;
//   * the durable tail (group-commit fsync wait), the latency merge of
//     the executors' completion stamps and the batch accounting run after
//     published_ advances, overlapped with batch i+1's execution — the
//     fsync leaves the drain-to-drain critical path.
//
// Execution and the epilogue stay strictly sequential by batch id;
// drain_batch merely awaits epilogue_done_. pipeline_depth == 1 (or
// config::async_epilogue off) degenerates to the inline epilogue on the
// drain caller — the paper's lockstep at depth 1.
//
// Engine-specific work enters through three stage_hooks, each at a fixed
// point of that machine: after-plan (last planner, before the batch is
// ready), pre-publish (quiescent point, before the commit epilogue) and
// post-publish (after executors were released into the next batch). The
// centralized engine passes none; dist-quecc runs its network rounds there.
//
// Within one slot, stage hand-offs provide the only inter-thread
// happens-before edges the queues need — there is no concurrency control
// during execution, only the lock-free dependency slots in txn_context.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/mutex.hpp"
#include "common/phase_annotations.hpp"
#include "common/thread_annotations.hpp"
#include "common/topology.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "core/spec_manager.hpp"
#include "storage/dual_version.hpp"

namespace quecc::log {
class log_writer;
class checkpointer;
}  // namespace quecc::log

namespace quecc::core {

/// Per-phase accounting of one batch (Figure 1 reproduction + pipeline
/// observability). Wall times are per-stage windows; busy times are summed
/// across the stage's threads, which is what stays meaningful when windows
/// of different batches overlap at pipeline_depth >= 2.
struct phase_stats {
  double plan_seconds = 0;      ///< wall: submit -> all planners done
  double exec_seconds = 0;      ///< wall: first executor in -> last out
  double epilogue_seconds = 0;  ///< wall: commit epilogue (+ log/ckpt)
  double plan_busy_seconds = 0;  ///< sum of per-planner plan() time
  double exec_busy_seconds = 0;  ///< sum of per-executor drain time
  /// Wall-clock intersection of this batch's planning window with earlier
  /// batches' execution windows (> 0 only when the pipeline overlapped).
  double overlap_seconds = 0;
  std::uint64_t planned_fragments = 0;
  std::uint64_t queues = 0;  ///< P*E conflict queues (+ read queues)
};

/// One batch in flight: the double-buffered planner->executor queue state
/// plus hand-off bookkeeping. The queue containers are pre-sized once so
/// their addresses stay stable for the driver lifetime — executors hold
/// raw pointers into them.
///
/// Synchronization: the batch/metrics/window fields are written under the
/// driver's stage mutex (or before the slot is published through it); the
/// atomics carry the intra-stage counting that must not serialize workers.
struct batch_slot {
  std::vector<plan_output> plan_outs;                // one per planner
  std::vector<std::vector<const frag_queue*>> exec_queues;  // [e] -> P ptrs
  std::vector<const frag_queue*> read_queues;        // flattened P*E (RC)
  std::atomic<std::size_t> read_cursor{0};

  txn::batch* batch = nullptr;
  common::run_metrics* metrics = nullptr;
  std::uint64_t submit_nanos = 0;      ///< plan window start
  std::uint64_t ready_nanos = 0;       ///< plan window end
  std::uint64_t exec_start_nanos = 0;  ///< exec window start
  std::uint64_t exec_end_nanos = 0;    ///< exec window end
  /// End lsn of the slot's batch record (durable runs). submit_batch
  /// writes it under the driver's mu_ and advances logged_; drain_batch
  /// waits for logged_ and reads it under mu_, so submitter and drainer
  /// may be different threads.
  std::uint64_t batch_lsn = 0;
  /// End lsn of the slot's commit record (durable runs), written under mu_
  /// before epilogue_done_ advances.
  std::uint64_t commit_lsn = 0;
  std::atomic<std::uint64_t> plan_busy_nanos{0};
  std::atomic<std::uint64_t> exec_busy_nanos{0};
  std::atomic<std::uint32_t> plan_pending{0};  ///< planners yet to finish
  std::atomic<std::uint32_t> exec_pending{0};  ///< executors yet to finish
  /// Completion stamps, [e] -> one per transaction of the batch, indexed
  /// by seq: the clock reading at which executor e last finished one of
  /// the transaction's entries, or 0. Executor e alone writes stamps[e]
  /// during execution; submit_batch sizes them to the batch, and
  /// merge_latency reads and clears them after the batch executed.
  std::vector<std::vector<std::uint64_t>> stamps;

  /// Resolve the rids of this slot's read-committed read queues against
  /// `db`'s primary indexes. Planners never resolve rids; conflict-queue
  /// fragments resolve at execution time because same-key routing
  /// affinity makes any concurrent same-key index mutation impossible.
  /// Read queues are claimed dynamically by *any* executor, so their
  /// lookups must happen at a quiescent point instead — the driver calls
  /// this under its stage mutex after batch n-1 published and before any
  /// executor of batch n starts, at every pipeline depth.
  EXEC_PHASE void resolve_read_queues(storage::database& db);

  /// Transactions of the batch that can still abort at run time, summed
  /// over the planners' outputs. Read only once the batch is planned.
  EXEC_PHASE std::uint32_t runtime_abortables() const noexcept;

  /// Record each stamped transaction's latency in `h` — from submit_nanos
  /// to its latest stamp over all executors — and clear the stamps for the
  /// slot's next batch. A transaction without a stamp queued no entry (it
  /// aborted at plan time) and gets no sample.
  EPILOGUE_PHASE void merge_latency(common::latency_histogram& h);
};

/// Planner/executor fabric: P planners, E executors, and a ring of
/// cfg.pipeline_depth batch slots, each carrying its own planner outputs
/// and per-executor conflict-queue views (plus the flattened RC read
/// queues). build() pre-sizes every queue container so addresses stay
/// stable for the driver lifetime.
struct pipeline {
  std::vector<planner> planners;
  std::vector<std::unique_ptr<executor>> executors;  // stable addresses
  std::vector<std::unique_ptr<batch_slot>> slots;    // size pipeline_depth

  /// `cfg` and `db` must outlive the pipeline (planners and executors keep
  /// references); `committed` may be null (serializable isolation).
  void build(const common::config& cfg, storage::database& db,
             storage::dual_version_store* committed);
};

/// Engine-specific work at three fixed points of the stage machine. Each
/// hook keeps the phase of the point it runs at.
class stage_hooks {
 public:
  /// Last planner of batch `b`, before the batch is marked ready: no
  /// executor starts on `b` until this returns.
  PLAN_PHASE virtual void after_plan(const txn::batch& b) = 0;
  /// Quiescent point, before the commit epilogue of `b` runs.
  EPILOGUE_PHASE virtual void pre_publish(const txn::batch& b) = 0;
  /// After published_ released executors into the next batch; must not
  /// mutate database state. `m` is `b`'s metrics sink.
  EPILOGUE_PHASE virtual void post_publish(const txn::batch& b,
                                           common::run_metrics& m) = 0;

 protected:
  ~stage_hooks() = default;
};

class stage_driver {
 public:
  /// `db` must outlive the driver and be fully loaded: under
  /// read-committed isolation the committed-version store snapshots it
  /// here. `hooks` (may be null) must outlive the driver; `thread_tag`
  /// prefixes the worker thread names.
  stage_driver(storage::database& db, const common::config& cfg,
               const char* thread_tag, stage_hooks* hooks = nullptr);
  ~stage_driver();

  stage_driver(const stage_driver&) = delete;
  stage_driver& operator=(const stage_driver&) = delete;

  /// The proto::engine pipelined batch API (see iface.hpp). submit_batch
  /// hands `b` to the planning stage; if every slot is occupied, it
  /// retires the oldest batch first (same thread, equivalent to the
  /// caller invoking drain_batch). Callers are either one thread doing
  /// both, or one submitter plus one drainer (which also calls
  /// sync_durable); the submitter then keeps at most pipeline_depth()
  /// batches undrained, so submit_batch never drains on its behalf. The
  /// drainer may retire a batch whose submit_batch call has not returned
  /// yet: drain_batch waits for the batch record's lsn (logged_).
  void run_batch(txn::batch& b, common::run_metrics& m);
  void submit_batch(txn::batch& b, common::run_metrics& m);
  bool drain_batch();
  std::uint32_t pipeline_depth() const noexcept {
    return cfg_.pipeline_depth;
  }

  /// Durable barrier: block until the batch and commit records of the most
  /// recent *drained* batch are fsynced (no-op when cfg.durable is off).
  /// Call from the thread that drains. See iface.hpp.
  void sync_durable();

  /// End lsns of the most recent drained batch's batch and commit records:
  /// the targets sync_durable() waits for (zeros when cfg.durable is off).
  /// Drain-thread state, like sync_durable (tests).
  struct record_lsns {
    std::uint64_t batch = 0;
    std::uint64_t commit = 0;
  };
  const record_lsns& drained_lsns() const noexcept { return drained_lsns_; }

  /// The command log, when cfg.durable enabled one (tests/introspection).
  log::log_writer* wal() const noexcept { return wal_.get(); }

  /// Stats of the most recent drained batch's speculative recovery (tests).
  const recovery_stats& last_recovery() const noexcept { return last_rec_; }

  /// Per-phase timing of the most recent drained batch (Figure 1
  /// reproduction + pipeline observability). Stable between drains.
  const phase_stats& last_phases() const noexcept { return phases_; }

 private:
  PLAN_PHASE void planner_main(worker_id_t p);
  EXEC_PHASE void executor_main(worker_id_t e);
  EPILOGUE_PHASE void epilogue_main();
  /// Retire batch n: quiescent epilogue half, advance published_, durable
  /// tail + accounting, advance epilogue_done_. Runs on the epilogue
  /// worker (async mode) or on the drain caller (inline mode) — exactly
  /// one of the two for a driver's lifetime.
  EPILOGUE_PHASE void run_epilogue(std::uint64_t n);
  /// Commit epilogue: speculative recovery, status marking, metrics, and
  /// read-committed publishing. dist-quecc's nodes share one process, so
  /// it too runs once globally — the paradigm's "no 2PC" commit.
  /// `runtime_abortables` is the slot's count: without one, the executors
  /// logged nothing for recovery, and no transaction may abort at run time.
  EPILOGUE_PHASE recovery_stats batch_epilogue(
      txn::batch& b, common::run_metrics& m, std::uint32_t runtime_abortables);
  /// Append batch b's batch record and return its end lsn.
  PLAN_PHASE std::uint64_t log_batch_record(const txn::batch& b);
  /// Append batch b's commit record (+ take a due checkpoint) and return
  /// the commit record's lsn. Quiescent-half only: the checkpoint scans
  /// the database and the commit record may carry its state hash.
  EPILOGUE_PHASE std::uint64_t log_commit_record(const txn::batch& b);

  storage::database& db_;
  common::config cfg_;
  const char* thread_tag_;
  stage_hooks* hooks_;
  std::unique_ptr<storage::dual_version_store> committed_;  // RC only
  spec_manager spec_;

  pipeline pipe_;

  /// Epilogue runs on the dedicated worker (third pipeline stage) instead
  /// of inline on the drain caller. Fixed at construction:
  /// cfg.async_epilogue && pipeline_depth >= 2 (depth 1 has nothing to
  /// overlap with, so it keeps the inline epilogue — the lockstep).
  bool use_async_epilogue_ = false;

  /// Topology-aware thread->cpu / arena->node assignment, computed when
  /// pin_threads or numa_bind ask for it (empty plan otherwise).
  common::placement_plan plan_;

  // --- stage synchronization ---------------------------------------------
  // Monotonic batch counters: a batch's slot is counter % pipeline_depth.
  // Planners advance on submitted_, executors on ready_ (gated by
  // published_ so execution stays sequential across slots and never
  // overtakes the previous batch's state-mutating epilogue half), the
  // epilogue stage on exec_done_, the drain path on epilogue_done_ (and,
  // durable, on logged_ for the slot's batch_lsn). All
  // guarded by mu_; cv_ carries every hand-off. The batch_slot fields
  // themselves are published *through* these counters (written before the
  // counter advance under mu_, read after observing it), which is why they
  // carry no GUARDED_BY of their own.
  common::mutex mu_;
  common::cond_var cv_;
  std::uint64_t submitted_ GUARDED_BY(mu_) = 0;  ///< handed to plan stage
  /// Batches fully planned (and past the after-plan hook).
  std::uint64_t ready_ GUARDED_BY(mu_) = 0;
  std::uint64_t exec_done_ GUARDED_BY(mu_) = 0;  ///< batches fully executed
  /// Batches whose state-mutating epilogue half finished (spec recovery,
  /// RC publish, checkpoint, commit-record append): executors of the next
  /// batch are released by this counter.
  std::uint64_t published_ GUARDED_BY(mu_) = 0;
  /// Batches whose full epilogue (durable tail + accounting) finished;
  /// drain_batch waits here.
  std::uint64_t epilogue_done_ GUARDED_BY(mu_) = 0;
  std::uint64_t drained_ GUARDED_BY(mu_) = 0;  ///< retired (slot freed)
  /// Batches whose batch record is appended and batch_lsn published
  /// (durable runs only).
  std::uint64_t logged_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  // Epilogue-owner state: touched only by run_epilogue, which runs on
  // exactly one thread for the driver's lifetime (the epilogue worker in
  // async mode, the single drain caller in inline mode). Readers of
  // last_rec_/phases_ synchronize through drain_batch's epilogue_done_
  // wait under mu_.
  std::uint64_t last_drain_nanos_ = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> recent_exec_windows_;
  recovery_stats last_rec_;
  phase_stats phases_;

  // --- durability (cfg_.durable; see src/log/) ---------------------------
  std::unique_ptr<log::log_writer> wal_;
  std::unique_ptr<log::checkpointer> ckpt_;
  /// Record lsns of the newest drained batch, copied from its slot under
  /// mu_ by drain_batch (drain-thread state).
  record_lsns drained_lsns_;
  // Epilogue-owner state (see above).
  std::uint64_t durable_stream_pos_ = 0;  ///< cumulative txns logged
  std::uint32_t batches_since_ckpt_ = 0;

  std::vector<std::thread> threads_;  ///< last: workers use every member
};

}  // namespace quecc::core
