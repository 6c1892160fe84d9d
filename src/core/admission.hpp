// Client admission: the seam between asynchronously arriving transactions
// and the deterministic batch pipeline.
//
// The paper's paradigm consumes *batches*, but real clients submit a
// stream. This layer turns the stream back into batches: a bounded MPSC
// admission queue absorbs submissions (blocking when full — backpressure,
// not unbounded memory), and a batch former closes a batch when either
// `config::batch_size` transactions have arrived or the
// `config::batch_deadline_micros` timer fires, whichever comes first. The
// deadline counts from the oldest queued transaction's admission stamp, so
// it bounds a transaction's residence time in the queue: a partial batch
// commits promptly instead of waiting forever for the batch to fill, and a
// transaction that queued while the consumer was busy is not charged a
// fresh deadline on top. Admission order *is* the batch sequence order, so the
// serial-equivalent order of the whole system is simply arrival order.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/stats.hpp"
#include "txn/batch.hpp"

namespace quecc::core {

/// Completion record shared between a client and the session's completer
/// thread, which fills it once the transaction's batch is drained and
/// durable; clients block in wait().
///
/// Lock-free by design (one producer, the completer; readers gated on
/// `done`): the plain fields are written before the release store of
/// `done`, and clients acquire-load `done` before reading them — a classic
/// publish/subscribe edge, so no GUARDED_BY applies.
struct ticket_state {
  std::atomic<std::uint32_t> done{0};
  txn::txn_status status = txn::txn_status::active;
  std::uint64_t queue_nanos = 0;  ///< submit -> batch execution start
  std::uint64_t e2e_nanos = 0;    ///< submit -> durable ack
  /// Value-slot snapshot taken at batch commit — the transaction's results
  /// outlive the batch (which the completer recycles immediately).
  std::vector<std::uint64_t> slots;

  /// Completer side: publish the outcome and wake every waiter. The plain
  /// fields above must be written before this is called.
  void complete(txn::txn_status s, std::uint64_t queue_ns,
                std::uint64_t e2e_ns) noexcept {
    status = s;
    queue_nanos = queue_ns;
    e2e_nanos = e2e_ns;
    done.store(1, std::memory_order_release);
    done.notify_all();
  }

  /// Client side: block until complete() ran.
  void wait() const noexcept { done.wait(0, std::memory_order_acquire); }

  bool is_done() const noexcept {
    return done.load(std::memory_order_acquire) != 0;
  }
};

/// One admitted transaction: the plan plus submission bookkeeping.
struct admitted_txn {
  std::unique_ptr<txn::txn_desc> txn;
  std::shared_ptr<ticket_state> ticket;  ///< may be null (fire-and-forget)
  std::uint64_t submit_nanos = 0;        ///< 0 = stamp at admission time
  /// Logical client session the submission belongs to; the per-session
  /// admission cap (config::admission_session_cap) is keyed on it.
  std::uint32_t client = 0;
};

/// Bounded multi-producer / single-consumer admission queue.
///
/// Producers (any number of client threads) submit; one consumer — the
/// batch former — drains. Blocking submit provides backpressure: when the
/// queue holds `capacity` transactions the caller waits until the former
/// catches up, which is the knob that keeps an overloaded open-loop run
/// from buffering the whole offered load in memory.
class admission_queue {
 public:
  /// `session_cap` (0 = unlimited) additionally bounds how many queued
  /// transactions any one client session (admitted_txn::client) may hold:
  /// a greedy session blocks on its own cap while the shared capacity
  /// still has room for everyone else — the fairness knob
  /// config::admission_session_cap plumbs through here.
  explicit admission_queue(std::size_t capacity,
                           std::uint32_t session_cap = 0);

  /// Enqueue, blocking while the queue is full or the submitter's session
  /// cap is reached. Stamps `t.submit_nanos = now` when the caller left it
  /// 0. Returns false (and drops `t`) when the queue was closed.
  bool submit(admitted_txn t);

  /// Non-blocking enqueue; returns false, leaving `t` intact, when the
  /// queue is full or closed.
  bool try_submit(admitted_txn& t);

  /// Consumer side: block until at least one transaction is available (or
  /// the queue is closed and drained, returning an empty vector), then
  /// collect up to `max` transactions, waiting at most until
  /// `deadline_micros` after the oldest one's admission stamp (counted from
  /// now instead when that stamp lies in the future). This is the batch
  /// former's size-or-deadline race; a transaction that queued while the
  /// consumer was busy closes its batch as soon as its budget is spent.
  std::vector<admitted_txn> pop_batch(std::uint32_t max,
                                      std::uint32_t deadline_micros);

  /// Stop accepting submissions; pop_batch drains what remains and then
  /// returns empty. Idempotent.
  void close();

  bool closed() const;
  std::size_t depth() const;
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint32_t session_cap() const noexcept { return session_cap_; }
  /// Queued transactions currently held by `client` (tests).
  std::uint32_t in_queue(std::uint32_t client) const;
  /// Total transactions ever admitted (monotonic; for stats/tests).
  std::uint64_t admitted() const;

 private:
  bool has_room(const admitted_txn& t) const REQUIRES(mu_);

  const std::size_t capacity_;
  const std::uint32_t session_cap_;
  mutable common::mutex mu_;
  common::cond_var not_full_;   // producers wait here
  common::cond_var not_empty_;  // the former waits here
  std::deque<admitted_txn> q_ GUARDED_BY(mu_);
  std::unordered_map<std::uint32_t, std::uint32_t> per_session_
      GUARDED_BY(mu_);
  std::uint64_t admitted_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

/// Drains an admission queue into sequenced, validated batches. Single
/// consumer — exactly one thread may call next().
class batch_former {
 public:
  /// `q` must outlive the former; `cfg` supplies batch_size and
  /// batch_deadline_micros (copied, so the caller's config may die).
  batch_former(admission_queue& q, const common::config& cfg)
      : q_(q),
        batch_size_(cfg.batch_size),
        deadline_micros_(cfg.batch_deadline_micros) {}

  /// A formed batch plus per-transaction bookkeeping, parallel to the
  /// batch's sequence order.
  struct formed {
    txn::batch batch;
    std::vector<std::shared_ptr<ticket_state>> tickets;
    std::vector<std::uint64_t> submit_nanos;
    bool valid = false;  ///< false: the queue closed and fully drained
  };

  /// Block until a batch closes (by size or deadline) or the queue is
  /// closed and drained (`valid == false`). Batch ids increase by one per
  /// formed batch. Every admitted plan must already satisfy
  /// txn::validate_plan — proto::session enforces this at submit; callers
  /// admitting transactions directly must validate them themselves.
  formed next();

  /// Safe to read from any thread (e.g. while a session is running).
  std::uint32_t batches_formed() const noexcept {
    // relaxed: monotonic stat counter, no ordering with batch contents.
    return next_id_.load(std::memory_order_relaxed);
  }

 private:
  admission_queue& q_;
  const std::uint32_t batch_size_;
  const std::uint32_t deadline_micros_;
  std::atomic<std::uint32_t> next_id_{0};
};

}  // namespace quecc::core
