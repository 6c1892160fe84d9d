// Execution phase: one executor drains its assigned queues in planner
// order (paper Section 3.2, second phase).
//
// "Execution threads are not aware of the actual transactions. They are
// simply executing the logic associated with the fragments in the queues,
// and obey the FIFO property of queues when processing fragments with
// conflict dependencies." — the executor is exactly that: a queue drainer
// plus the frag_host that gives fragment logic in-place access to rows.
//
// Coordination is limited to the lock-free txn_context (data / commit
// dependencies, abort flags); there is no per-record locking or validation
// anywhere on this path.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/phase_annotations.hpp"
#include "common/stats.hpp"
#include "core/exec_log.hpp"
#include "core/frag_queue.hpp"
#include "storage/database.hpp"
#include "storage/dual_version.hpp"
#include "txn/procedure.hpp"

namespace quecc::core {

class executor final : public txn::frag_host {
 public:
  executor(worker_id_t id, const common::config& cfg, storage::database& db,
           storage::dual_version_store* committed)
      : id_(id), cfg_(cfg), db_(db), committed_(committed) {}

  worker_id_t id() const noexcept { return id_; }
  exec_logs& logs() noexcept { return logs_; }
  common::latency_histogram& latency() noexcept { return latency_; }

  /// Called by the engine at the start of each batch's execution phase.
  void begin_batch(std::uint64_t batch_start_nanos) noexcept {
    batch_start_nanos_ = batch_start_nanos;
    logs_.clear();
  }

  /// Drain conflict queues in the given (planner) order.
  EXEC_PHASE void run_conflict_queues(std::span<const frag_queue* const> queues);

  /// Claim and drain read-committed read queues from the shared pool.
  /// `cursor` is the engine-owned claim index over `queues`.
  EXEC_PHASE void run_read_queues(std::span<const frag_queue* const> queues,
                                  std::atomic<std::size_t>& cursor);

  // --- frag_host (in-place speculative / conservative execution) ---------
  EXEC_PHASE std::span<const std::byte> read_row(const txn::fragment& f,
                                                 txn::txn_desc& t) override;
  EXEC_PHASE std::span<std::byte> update_row(const txn::fragment& f,
                                             txn::txn_desc& t) override;
  EXEC_PHASE std::span<std::byte> insert_row(const txn::fragment& f,
                                             txn::txn_desc& t) override;
  EXEC_PHASE bool erase_row(const txn::fragment& f, txn::txn_desc& t) override;
  /// Ordered range read over the current queue entry's partition (a
  /// kAllParts scan reaches this executor once per fanned-out partition;
  /// its logic accumulates via txn_desc::produce_partial).
  EXEC_PHASE bool scan_rows(const txn::fragment& f, txn::txn_desc& t,
                            scan_row_fn fn, void* ctx) override;

 private:
  EXEC_PHASE void process(const frag_entry& e);
  EXEC_PHASE void skip(const frag_entry& e);
  EXEC_PHASE void finish(txn::txn_desc& t);

  /// Resolve a fragment's row id: the rid resolve_read_queues set for RC
  /// read-queue fragments, else an execution-time index lookup (FIFO on
  /// the home partition's queue makes earlier same-key inserts and erases
  /// of this batch visible by now).
  storage::row_id_t resolve(const txn::fragment& f) const noexcept;

  worker_id_t id_;
  const common::config& cfg_;
  storage::database& db_;
  storage::dual_version_store* committed_;  ///< null unless read-committed
  exec_logs logs_;
  common::latency_histogram latency_;
  std::uint64_t batch_start_nanos_ = 0;
  bool reading_committed_ = false;  ///< true while draining read queues
  /// Effective partition of the entry being processed; scan_rows scans it
  /// (the fragment itself may carry the kAllParts sentinel).
  part_id_t current_part_ = 0;
};

}  // namespace quecc::core
