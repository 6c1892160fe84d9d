// Execution queues: FIFO queues of planned fragments.
//
// Paper Section 3.2 / Figure 1: planners emit queues of fragments with a
// deterministic priority; executors process assigned queues in priority
// order and "obey the FIFO property of queues when processing fragments
// with conflict dependencies". Here the priority is the planner's id and
// lives in the queue's position: pipeline::build wires each executor's
// queues in planner order.
//
// FIFO is kept per conflict key, not per queue: entries with the same
// `key` run in queue order, while an entry that cannot run yet (see
// core/executor.hpp) lets later entries with other keys overtake it. The
// key is the routing identity the planner hashed to pick the queue, so
// every entry that could conflict with another on the same executor
// carries the same key.
//
// A queue is written by exactly one planner during the planning phase and
// read by exactly one executor during the execution phase; the engine's
// phase barrier provides the happens-before edge, so the container itself
// needs no synchronization (CP.3: minimize shared writable data).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "txn/fragment.hpp"
#include "txn/txn_context.hpp"

namespace quecc::core {

/// One planned unit of work: a fragment plus its owning transaction. The
/// fragment pointer is non-const because the stage driver resolves
/// read-queue rids at the pre-execution quiescent point (see
/// batch_slot::resolve_read_queues); executors treat fragments as const.
///
/// `part` is the entry's *effective* partition. It equals f->part except
/// for cross-partition scan fragments (f->part == txn::kAllParts), which
/// the planner fans out into one entry per partition — the shared fragment
/// cannot carry the per-entry partition, so the queue entry does.
///
/// `key` is the entry's conflict key: 32 bits of the routing hash, (table,
/// key) on hash tables and (table, effective partition) on ordered ones, so
/// a scan and the point writes in its range share it. It fills padding the
/// entry had anyway. Two records colliding on it are merely kept in queue
/// order, which is always safe.
struct frag_entry {
  txn::txn_desc* t = nullptr;
  txn::fragment* f = nullptr;
  part_id_t part = 0;
  std::uint32_t key = 0;
};

class frag_queue {
 public:
  void push(frag_entry e) { entries_.push_back(e); }
  void clear() noexcept { entries_.clear(); }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  std::span<const frag_entry> entries() const noexcept { return entries_; }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<frag_entry> entries_;
};

}  // namespace quecc::core
