// Planning phase: deterministic construction of priority-tagged fragment
// queues (paper Section 3.2, first phase).
//
// Planner `p` owns the batch slice { txns | seq % P == p } and walks it in
// sequence order, routing every fragment to the execution queue of its home
// partition's executor. Because each planner visits its transactions in seq
// order and executors drain planner queues in planner-priority order, the
// global replay order (planner, seq, frag idx) is consistent with sequence
// order — the serial-equivalent order of the batch.
//
// Planning reads only the batch and the catalog (each table's index kind,
// for routing). Primary-index lookups (fragment -> row id) happen at
// execution time: planning of batch i+1 may overlap batch i's execution,
// which mutates the indexes.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "common/phase_annotations.hpp"
#include "core/frag_queue.hpp"
#include "storage/database.hpp"
#include "txn/batch.hpp"

namespace quecc::core {

/// Output of one planner for one batch: E conflict queues (one per
/// executor) and, under read-committed isolation, E read queues.
struct plan_output {
  std::vector<frag_queue> conflict;  ///< size E, FIFO per executor
  std::vector<frag_queue> reads;     ///< size E under RC, else empty
  std::uint64_t planned_frags = 0;

  void resize(worker_id_t executors, bool with_read_queues);
  void clear();
};

class planner {
 public:
  planner(worker_id_t id, const common::config& cfg, storage::database& db)
      : id_(id), cfg_(cfg), db_(db) {}

  worker_id_t id() const noexcept { return id_; }

  /// Plan this planner's slice of `b` into `out`. Deterministic: depends
  /// only on (batch contents, planner id, P, E, isolation).
  PLAN_PHASE void plan(txn::batch& b, plan_output& out);

 private:
  /// Pure read fragments are eligible for the RC read queues; everything
  /// else keeps conflict-queue FIFO ordering. `writer_needed` is the mask
  /// of slots transitively consumed by conflict-queue fragments of the same
  /// transaction: a read producing such a slot must stay in the conflict
  /// queues, otherwise an executor draining conflict queues could wait on a
  /// slot whose producer sits in a not-yet-claimed read queue (deadlock).
  PLAN_PHASE bool goes_to_read_queue(const txn::fragment& f,
                                     std::uint64_t writer_needed) const noexcept;

  /// Backward pass computing the writer-needed slot mask for one txn.
  PLAN_PHASE static std::uint64_t writer_needed_slots(
      const txn::txn_desc& t) noexcept;

  /// Queue routing: node by home partition, executor within the node by a
  /// per-record hash (intra-partition parallelism) — except for tables on
  /// an ordered index, which route by partition so scans and the point
  /// writes inside their key range share one FIFO. `part` is the entry's
  /// effective partition (== f.part except fanned-out kAllParts scans).
  PLAN_PHASE worker_id_t route(const txn::fragment& f,
                               part_id_t part) const noexcept;

  worker_id_t id_;
  const common::config& cfg_;
  storage::database& db_;
};

}  // namespace quecc::core
