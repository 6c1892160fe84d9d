// Shared skeleton for the non-deterministic baseline protocols
// (2PL-NoWait / 2PL-WaitDie / Silo / TicToc / MVTO).
//
// These are the "classical" protocols of paper Section 1: worker threads
// claim whole transactions (thread-to-transaction assignment), execute
// their fragments in index order, and resolve conflicts with per-record
// concurrency control — aborting and retrying when the protocol demands
// it. The skeleton owns the worker pool, the retry loop, metrics, and the
// commit-order trace; each protocol supplies a worker context that
// implements its locking / validation / versioning rules.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/batch_pool.hpp"
#include "common/spinlock.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "protocols/iface.hpp"
#include "txn/procedure.hpp"

namespace quecc::proto {

/// Seqlock row copies for the optimistic baselines (Silo, TicToc). A
/// committer installs into a row while readers may be copying it; the
/// reader's version-word recheck discards any copy that overlapped an
/// install. Both sides access the row bytes with relaxed std::atomic_ref
/// loads/stores, so that overlap is not a data race. Accesses are chunked
/// by the row's address (bytes up to 8-byte alignment, then words, then
/// bytes), so a reader and an installer of one row issue the same sizes.
/// `out`/`in` must be exactly as large as `row`.
void seqlock_load(std::span<std::byte> out,
                  std::span<const std::byte> row) noexcept;
void seqlock_store(std::span<std::byte> row,
                   std::span<const std::byte> in) noexcept;

/// Per-worker, per-protocol execution state.
class worker_ctx {
 public:
  virtual ~worker_ctx() = default;

  /// Host handed to fragment logic for this attempt.
  virtual txn::frag_host& host() = 0;

  /// Start an attempt of `t`. Called after t.reset_runtime().
  virtual void begin(txn::txn_desc& t) = 0;

  /// True when the protocol vetoed the attempt inside a host call (lock
  /// conflict, inconsistent read, write-rule violation, ...).
  virtual bool cc_failed() const noexcept = 0;

  /// Validate + install. Returns false on concurrency-control abort; the
  /// context must then be clean enough for abort_attempt() to run.
  /// `at_serialization` must be invoked exactly once on the success path,
  /// at the protocol's serialization point (e.g. while write locks are
  /// held), so the recorded commit order is conflict-consistent — the
  /// serializability property tests replay batches in that order.
  virtual bool try_commit(txn::txn_desc& t,
                          const std::function<void()>& at_serialization) = 0;

  /// Undo the attempt's effects and release protocol resources. Used for
  /// both cc retries and final logic aborts.
  virtual void abort_attempt(txn::txn_desc& t) = 0;
};

class nd_engine_base : public engine {
 public:
  nd_engine_base(storage::database& db, const common::config& cfg,
                 const char* display_name);

  const char* name() const noexcept override { return display_name_; }
  void run_batch(txn::batch& b, common::run_metrics& m) override;
  /// Read at quiescent points only (between run_batch calls): the pointer
  /// itself is stable, and workers stopped appending when run_round
  /// returned. Taking the address is not a guarded access under TSA.
  const std::vector<seq_t>* commit_order() const noexcept override {
    return &commit_order_;
  }

 protected:
  virtual std::unique_ptr<worker_ctx> make_worker(unsigned w) = 0;

  storage::database& db_;
  common::config cfg_;

 private:
  void worker_job(unsigned w);
  void ensure_pool();

  const char* display_name_;
  std::unique_ptr<common::batch_pool> pool_;
  std::vector<std::unique_ptr<worker_ctx>> workers_;
  std::vector<common::run_metrics> worker_metrics_;

  txn::batch* current_ = nullptr;
  std::atomic<std::size_t> cursor_{0};
  common::spinlock order_lock_;
  std::vector<seq_t> commit_order_ GUARDED_BY(order_lock_);
};

}  // namespace quecc::proto
