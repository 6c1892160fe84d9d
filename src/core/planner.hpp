// Planning phase: deterministic construction of per-executor fragment
// queues (paper Section 3.2, first phase).
//
// Planner `p` owns the p-th contiguous slice of the batch and walks it in
// sequence order, routing every fragment to the execution queue of its home
// partition's executor. Executors drain the planners' queues in planner
// order (pipeline::build), so the global replay order (planner, seq, frag
// idx) is sequence order — the serial-equivalent order of the batch.
//
// Planning reads the batch, the catalog (each table's index kind, for
// routing) and rows of replicated tables, which no transaction writes.
// Every other primary-index lookup (fragment -> row id) happens at
// execution time: planning of batch i+1 may overlap batch i's execution,
// which mutates the indexes.
//
// Plan-time abort checks. An abortable read with no inputs on a replicated
// table (TPC-C's ITEM check) is a function of the transaction's arguments
// and a row nothing writes, so its outcome is known before anything runs.
// The planner runs it through the procedure's own logic against a host that
// reads only replicated tables. If it aborts, the transaction is marked
// aborted and plans no fragments; otherwise its output slot is produced and
// the fragment is not queued, so its commit dependency is gone before
// execution starts. Planners write only runtime fields (status, slots,
// counters), never a transaction's fragments or arguments, which the
// command log encodes while planning runs. Replay replans and reaches the
// same decisions.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "common/phase_annotations.hpp"
#include "core/frag_queue.hpp"
#include "storage/database.hpp"
#include "txn/batch.hpp"
#include "txn/procedure.hpp"

namespace quecc::core {

/// Output of one planner for one batch: E conflict queues (one per
/// executor) and, under read-committed isolation, E read queues.
struct plan_output {
  std::vector<frag_queue> conflict;  ///< size E, FIFO per executor
  std::vector<frag_queue> reads;     ///< size E under RC, else empty
  std::uint64_t planned_frags = 0;
  /// Transactions of this slice whose abortable fragments are still
  /// pending after the plan-time checks: only they can abort at run time.
  /// Zero across every planner means the executors need no speculation
  /// logs for the batch (core/executor.hpp).
  std::uint32_t runtime_abortables = 0;

  void resize(worker_id_t executors, bool with_read_queues);
  void clear();
};

/// The read-committed routing rule. Under read-committed isolation the
/// planner sends `f` to a read queue, served from the previous batch's
/// committed image, exactly when this holds; everything else keeps
/// conflict-queue FIFO ordering. Speculative recovery re-executes tainted
/// transactions by the same rule (core/spec_manager.hpp), so a re-run read
/// observes the image its first run did.
///
/// Pure, non-abortable reads qualify; abortable reads stay in conflict
/// queues (the abort decision must see the serializable image).
/// `writer_needed` is writer_needed_slots() of the fragment's transaction:
/// a read producing a slot that conflict-queue fragments consume stays in
/// the conflict queues, otherwise an executor draining conflict queues
/// could wait on a slot whose producer sits in a not-yet-claimed read
/// queue (deadlock).
bool goes_to_read_queue(const txn::fragment& f,
                        std::uint64_t writer_needed) noexcept;

/// Backward pass computing the mask of slots transitively consumed by
/// conflict-queue fragments of `t`.
std::uint64_t writer_needed_slots(const txn::txn_desc& t) noexcept;

class planner {
 public:
  planner(worker_id_t id, const common::config& cfg, storage::database& db)
      : id_(id), cfg_(cfg), db_(db) {}

  worker_id_t id() const noexcept { return id_; }

  /// Plan this planner's slice of `b` into `out`. Deterministic: depends
  /// only on (batch contents, planner id, P, E, isolation).
  PLAN_PHASE void plan(txn::batch& b, plan_output& out);

 private:
  /// Abortable reads the planner decides itself: no inputs, on a
  /// replicated (read-only) table.
  PLAN_PHASE bool decided_at_plan(const txn::fragment& f) const noexcept;

  /// Run t's plan-decidable abort checks through its logic against `h`.
  /// Returns false when one aborts (t is marked aborted at plan time);
  /// otherwise drops the resolved checks from t's pending_abortables.
  QUECC_PLAN_READ(
      "reads only replicated tables, which no transaction writes, so the "
      "reads cannot race with the execution planning overlaps")
  bool run_plan_checks(txn::txn_desc& t, txn::frag_host& h) const;

  /// Queue routing: node by home partition, executor within the node by a
  /// per-record hash (intra-partition parallelism) — except for tables on
  /// an ordered index, which route by partition so scans and the point
  /// writes inside their key range share one FIFO. `part` is the entry's
  /// effective partition (== f.part except fanned-out kAllParts scans).
  /// Returns the executor; `key` receives the entry's conflict key, 32
  /// bits of the same routing hash.
  PLAN_PHASE worker_id_t route(const txn::fragment& f, part_id_t part,
                               std::uint32_t& key) const noexcept;

  worker_id_t id_;
  const common::config& cfg_;
  storage::database& db_;
};

}  // namespace quecc::core
