// Execution phase: one executor drains its assigned queues in planner
// order (paper Section 3.2, second phase).
//
// "Execution threads are not aware of the actual transactions. They are
// simply executing the logic associated with the fragments in the queues,
// and obey the FIFO property of queues when processing fragments with
// conflict dependencies." — the executor is exactly that: a queue drainer
// plus the frag_host that gives fragment logic in-place access to rows.
//
// FIFO is kept per conflict key (frag_entry::key), not per queue. An entry
// whose input slots are not produced yet, or (conservative execution) whose
// transaction still has abortable fragments pending, is parked and the
// executor moves on; a later entry with the key of a parked entry parks
// behind it, and runs as soon as the entries ahead of it have. So entries
// that share a key still run in queue order and the state equals the
// serial run's, while the executors stop waiting on each other's progress.
//
// Lookahead. The plan fixes every access of the batch before execution,
// so a queue is also the list of the memory its executor touches next.
// While it admits entry i of a queue, the executor prefetches further down
// the same queue, in two stages:
//  * kDescAhead (16) entries ahead: the entry's fragment, and its
//    txn_desc for writing (the executor reads its status and procedure,
//    and an abortable fragment writes its pending_abortables and status;
//    a read-only prefetch measured within noise);
//  * kBucketAhead (8) ahead, reading that now-cached fragment and
//    txn_desc: the output value slot the fragment will produce, for
//    writing, and the hash-index bucket of (table, key, part)
//    (table::prefetch_key; a no-op on ordered indexes, and skipped for
//    scans and pre-resolved rids).
// The distances come from a sweep on ycsb-hot (2 executors, 4-CPU box):
// the pairs 8/4, 16/4, 16/8, 32/8 and 16/2 were within noise of each
// other, and asking for the txn_desc and slot lines for writing added
// ~4%. A third stage, a lookup 3 ahead on the now-cached bucket and a
// prefetch of the row it names, lost 7-10% throughput there, so rows are
// not prefetched. Row slabs and bucket arrays sit on huge pages
// (storage/huge_pages.hpp), so a bucket prefetch does not wait on a page
// walk.
// The lookahead is a hint and nothing more: it reads no index entry, so
// no rid from it can go stale when an entry between the lookahead and the
// run inserts or erases the same key. resolve() at run time stays the
// only source of the rid that runs.
//
// Coordination is limited to the lock-free txn_context (data / commit
// dependencies, abort flags); there is no per-record locking or validation
// anywhere on this path.
//
// Completion stamps. Nothing counts a transaction's finished fragments.
// An executor writes, for each entry it runs or skips, its clock into its
// own stamp array at the transaction's seq (batch_slot::stamps); the
// clock is read once every kClockEvery queue entries and at each retry of
// the parked entries, never per transaction. The epilogue takes a
// transaction's latest stamp over all executors as its completion time.
//
// Logs (core/exec_log.hpp). An executor writes only what something will
// read, decided once per batch in begin_batch from the planners' count of
// transactions that can still abort at run time:
//  * speculative execution, and the batch has such a transaction: every
//    conflict-queue point read and scan range, a before-image per update,
//    and an undo entry per write. spec_manager::recover reads them all;
//  * otherwise, under read-committed: undo entries without images for
//    updates and inserts, the rows the commit epilogue publishes;
//  * otherwise nothing. A batch with nothing abortable at run time cannot
//    abort, and conservative execution never applies a write of a
//    transaction that aborts.
#pragma once

#include <array>
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
      : id_(id), cfg_(cfg), db_(db), committed_(committed) {
    tail_.fill(kNone);
  }

  worker_id_t id() const noexcept { return id_; }
  exec_logs& logs() noexcept { return logs_; }

  /// Called by the engine at the start of each batch's execution phase.
  /// `runtime_abortables` counts the batch's transactions that can still
  /// abort at run time (plan_output::runtime_abortables, summed over the
  /// planners); it decides which logs this batch writes (see top).
  /// `stamps` is this executor's completion-stamp array for the batch, one
  /// element per transaction (see top); the executor only ever writes it.
  EXEC_PHASE void begin_batch(std::uint32_t runtime_abortables,
                              std::span<std::uint64_t> stamps) noexcept {
    stamps_ = stamps;
    logs_.clear();
    log_speculation_ = logs_for_recovery(cfg_, runtime_abortables);
    log_writes_ = log_speculation_ ||
                  cfg_.iso == common::isolation::read_committed;
  }

  /// Whether a batch with `runtime_abortables` writes the logs speculative
  /// recovery reads; the commit epilogue recovers only those batches.
  EXEC_PHASE static bool logs_for_recovery(
      const common::config& cfg, std::uint32_t runtime_abortables) noexcept {
    return cfg.execution == common::exec_model::speculative &&
           runtime_abortables != 0;
  }

  /// Drain conflict queues in the given (planner) order, keeping queue
  /// order per conflict key.
  EXEC_PHASE void run_conflict_queues(
      std::span<const frag_queue* const> queues);

  /// Claim and drain read-committed read queues from the shared pool.
  /// `cursor` is the engine-owned claim index over `queues`. These entries
  /// read the committed image, so they park on inputs only, never on keys.
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
  /// Why an entry cannot run yet: an input slot is not produced, its
  /// transaction has abortable fragments pending (conservative updates
  /// only), or an earlier parked entry holds its conflict key. `none`: it
  /// ran or was skipped.
  enum class wait_reason : std::uint8_t { none, data, commit, key };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct parked_entry {
    frag_entry e;
    std::uint32_t next;  ///< next parked entry of the same key, or kNone
    wait_reason why;
  };

  /// Buckets of the parked-key table; keys sharing a bucket share one
  /// FIFO, which only over-parks.
  static constexpr std::size_t kKeyBuckets = 4096;
  /// Queue entries taken between two retries of the parked entries.
  static constexpr std::uint32_t kRetryEvery = 16;

  /// Queue entries between two clock reads for the completion stamps.
  static constexpr std::uint32_t kClockEvery = 16;

  /// Lookahead distances, in queue entries (see top).
  static constexpr std::size_t kDescAhead = 16;
  static constexpr std::size_t kBucketAhead = 8;

  /// Admit every entry of `q` in order, prefetching ahead of it.
  EXEC_PHASE void run_queue(const frag_queue& q);
  /// The lookahead's second stage (see top): hints only.
  EXEC_PHASE void prefetch_slot_and_bucket(const frag_entry& e) const noexcept;
  /// Run, skip or park the next queue entry.
  EXEC_PHASE void admit(const frag_entry& e);
  /// Run or skip `e` if it can run now; otherwise say why it must wait.
  EXEC_PHASE wait_reason try_run(const frag_entry& e);
  /// Park `e` as the first parked entry of its key.
  EXEC_PHASE void park(const frag_entry& e, wait_reason why);
  /// Try every key's first parked entry, and on success the entries
  /// parked behind it. Returns true if any entry ran or was skipped.
  EXEC_PHASE bool retry_parked();
  /// Retry until nothing is parked, waiting with backoff while nothing can
  /// run.
  EXEC_PHASE void drain_parked();
  /// Add this run's applied/skipped/parked counts to the metrics.
  EXEC_PHASE void flush_counts();
  EXEC_PHASE void skip(const frag_entry& e);
  /// Stamp `t` as finished by this executor at the last clock reading.
  EXEC_PHASE void finish(const txn::txn_desc& t) noexcept {
    stamps_[t.seq] = clock_;
  }

  EXEC_PHASE static std::size_t bucket(std::uint32_t key) noexcept {
    return key & (kKeyBuckets - 1);
  }

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
  /// This batch's completion stamps, indexed by seq (see top).
  std::span<std::uint64_t> stamps_;
  /// Clock at the last read (every kClockEvery entries, each retry).
  std::uint64_t clock_ = 0;
  bool reading_committed_ = false;  ///< true while draining read queues
  /// This batch logs reads and before-images (speculative recovery reads
  /// them).
  bool log_speculation_ = false;
  /// This batch logs update and insert undo entries (recovery or the RC
  /// publish reads them).
  bool log_writes_ = false;
  /// Effective partition of the entry being processed; scan_rows scans it
  /// (the fragment itself may carry the kAllParts sentinel).
  part_id_t current_part_ = 0;

  // --- parking (executor-thread state, empty between runs) ---------------
  /// Every entry parked since nothing was last parked, in queue order;
  /// entries of one key are chained through `next`.
  std::vector<parked_entry> parked_;
  /// Indices into parked_ of the first unfinished entry of each key: the
  /// only entries a retry tries.
  std::vector<std::uint32_t> heads_;
  /// Index of each key bucket's last parked entry, or kNone (conflict
  /// queues only; read-queue entries park unchained).
  std::array<std::uint32_t, kKeyBuckets> tail_;
  std::uint32_t since_retry_ = 0;  ///< entries taken since the last retry
  std::uint64_t applied_ = 0;      ///< counts not yet flushed to metrics
  std::uint64_t skipped_ = 0;
  std::uint64_t parked_total_ = 0;
};

}  // namespace quecc::core
