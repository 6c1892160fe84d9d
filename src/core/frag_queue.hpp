// Execution queues: priority-tagged FIFO queues of planned fragments.
//
// Paper Section 3.2 / Figure 1: planners emit queues of fragments tagged
// with deterministic priorities; executors process assigned queues in
// priority order and "obey the FIFO property of queues when processing
// fragments with conflict dependencies".
//
// A queue is written by exactly one planner during the planning phase and
// read by exactly one executor during the execution phase; the engine's
// phase barrier provides the happens-before edge, so the container itself
// needs no synchronization (CP.3: minimize shared writable data).
#pragma once

#include <cstdint>
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
struct frag_entry {
  txn::txn_desc* t = nullptr;
  txn::fragment* f = nullptr;
  part_id_t part = 0;
};

/// Deterministic queue priority: (planner id, position). Executors drain
/// planner 0's queue fully before planner 1's, matching batch order.
struct queue_priority {
  worker_id_t planner = 0;

  friend bool operator<(const queue_priority& a,
                        const queue_priority& b) noexcept {
    return a.planner < b.planner;
  }
};

class frag_queue {
 public:
  void set_priority(queue_priority p) noexcept { prio_ = p; }
  queue_priority priority() const noexcept { return prio_; }

  void push(frag_entry e) { entries_.push_back(e); }
  void clear() noexcept { entries_.clear(); }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<frag_entry> entries_;
  queue_priority prio_;
};

}  // namespace quecc::core
