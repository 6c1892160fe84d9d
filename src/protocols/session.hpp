// Client session: the asynchronous submission front door to any engine.
//
// A session turns the engine's batch primitives — submit_batch /
// drain_batch, or run_batch for non-pipelined engines — into a
// server-shaped API: clients call submit() from any number of threads and
// get back a ticket. Two session threads split the engine's pipelined API
// between them (the two-thread contract in iface.hpp):
//
//   * the submitter waits until fewer than engine::pipeline_depth()
//     batches are undrained, then closes the next batch through a batch
//     former (on size or deadline, see core/admission.hpp) and hands it to
//     the engine with submit_batch;
//   * the completer drains handed batches in submission order, waits for
//     durability, and resolves their tickets.
//
// So batch i+1 forms and plans while batch i executes and waits for its
// fsync, and a batch's tickets resolve as soon as the batch is durable —
// never after its successor's deadline. A trickle client needs no special
// case: the completer drains on its own while the submitter waits for more
// arrivals. Against a depth-1 engine (submit_batch == run_batch) the
// submitter waits for the completer before forming the next batch. Tickets
// carry the transaction's final status plus its queueing delay and
// end-to-end latency, both measured from *submit time* — the quantity a
// loaded system's clients actually experience, which the closed-loop
// harness cannot see.
//
// Durable ack: the completer calls engine::sync_durable() after every
// batch, *before* resolving tickets. Against a durable engine
// (config::durable) a resolved ticket therefore means the batch's plan and
// commit records are fsynced — the group-commit wait shows up in e2e
// latency, not as a weaker acknowledgement. Against in-memory engines
// sync_durable is a no-op and nothing changes.
//
// Fairness: submissions may carry a client id (default 0); when
// config::admission_session_cap is set, each client id is capped to that
// many queued transactions, so one greedy client cannot occupy the whole
// admission queue and starve the rest.
//
//   proto::session s(*eng, cfg);
//   auto t = s.submit(std::move(txn));
//   auto r = t.wait();   // {status, queue_nanos, e2e_nanos}
//   s.close();           // drain + stop (also runs on destruction)
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/config.hpp"
#include "common/mutex.hpp"
#include "common/stats.hpp"
#include "common/thread_annotations.hpp"
#include "core/admission.hpp"
#include "protocols/iface.hpp"

namespace quecc::proto {

class session {
 public:
  /// Handle to one submitted transaction. Copyable; wait() may be called
  /// from any thread, repeatedly.
  class ticket {
   public:
    ticket() = default;

    struct result {
      txn::txn_status status = txn::txn_status::aborted;
      std::uint64_t queue_nanos = 0;  ///< submit -> batch execution start
      std::uint64_t e2e_nanos = 0;    ///< submit -> durable ack
      std::vector<std::uint64_t> slots;  ///< value-slot results at commit
    };

    /// Block until the transaction's batch committed and, on a durable
    /// engine, is on stable storage. Returns an aborted result immediately
    /// on an invalid (default-constructed or rejected) ticket.
    result wait() const;

    bool valid() const noexcept { return st_ != nullptr; }
    bool done() const noexcept { return st_ && st_->is_done(); }

   private:
    friend class session;
    explicit ticket(std::shared_ptr<core::ticket_state> st)
        : st_(std::move(st)) {}
    std::shared_ptr<core::ticket_state> st_;
  };

  /// Wraps `eng`, which must outlive the session. `cfg` supplies
  /// batch_size, batch_deadline_micros, and admission_capacity. The
  /// submitter and completer threads start immediately. The session must
  /// be the engine's only driver while it is open.
  session(engine& eng, const common::config& cfg);
  ~session();

  session(const session&) = delete;
  session& operator=(const session&) = delete;

  /// Submit a planned transaction (thread-safe; blocks while the admission
  /// queue is full or `client`'s session cap is reached). Returns an
  /// invalid ticket after close(). A malformed plan (txn::validate_plan
  /// failure) or null transaction is rejected here, on the submitting
  /// thread: its ticket resolves immediately as aborted instead of
  /// poisoning the batch pipeline.
  ticket submit(std::unique_ptr<txn::txn_desc> t, std::uint32_t client = 0);

  /// Same, but the caller supplies the submit timestamp (common::now_nanos
  /// clock). The open-loop harness passes the *scheduled* arrival time so
  /// any submission slip is charged to queueing delay, as a real client
  /// would experience it.
  ticket submit_at(std::unique_ptr<txn::txn_desc> t,
                   std::uint64_t submit_nanos, std::uint32_t client = 0);

  /// Fire-and-forget submit: no ticket, so the completer skips the per-txn
  /// result snapshot and wakeup — the cheap path for load generators that
  /// only read the aggregated metrics(). Queue/e2e histograms still record
  /// every posted transaction. Blocks while the admission queue is full,
  /// like submit(). Returns false when the transaction was rejected
  /// (malformed plan, null, or session closed).
  bool post(std::unique_ptr<txn::txn_desc> t, std::uint64_t submit_nanos = 0,
            std::uint32_t client = 0);

  /// Stop accepting submissions, drain every admitted transaction through
  /// the engine, and join both session threads. Idempotent; concurrent
  /// close() calls are safe (late callers block until the first finishes),
  /// though as with any object no call may race the destructor itself.
  /// Also run by the destructor.
  void close();

  /// Aggregated metrics: the engine's counters plus the session's
  /// queue/e2e latency histograms. Stable only after close().
  const common::run_metrics& metrics() const noexcept { return metrics_; }

  std::uint32_t batches_formed() const noexcept {
    return former_.batches_formed();
  }

  /// common::now_nanos timestamp of the most recent batch commit (0 if no
  /// batch committed yet). Stable only after close(); the open-loop
  /// harness uses it to bound the measurement window at last commit.
  std::uint64_t last_commit_nanos() const noexcept {
    return last_commit_nanos_;
  }

 private:
  /// One batch from formation to ticket resolution. It stays in inflight_
  /// (a deque never relocates held elements) until its tickets resolve:
  /// the engine keeps a pointer to the batch until its drain.
  struct inflight_batch {
    core::batch_former::formed f;
    std::uint64_t engine_nanos = 0;  ///< handed to the engine (exec start)
  };

  void submitter_main();
  void completer_main();
  /// Record latencies and resolve `ib`'s tickets (completer thread).
  void resolve(inflight_batch& ib, std::uint64_t done_nanos);
  static bool prepare(const std::unique_ptr<txn::txn_desc>& t);

  // Synchronization: clients hand off through queue_ (its own mutex) and
  // core::ticket_state (release-publish of `done`). The two session
  // threads meet under mu_. The submitter appends to inflight_ and, once
  // submit_batch returned, counts the batch in handed_; it waits while
  // pipeline_depth() handed batches are undrained. The completer drains
  // only handed batches, counts them in drained_, and pops each after
  // resolving it. An element belongs to the submitter until handed_ covers
  // it and to the completer after, so its fields need no lock. The former
  // is submitter-only.
  // metrics_ is written by the engine (the batch counters) and by the
  // completer (queue/e2e histograms) — disjoint fields — and, like
  // last_commit_nanos_ (completer-only), is readable once close() joined
  // both threads.
  engine& eng_;
  core::admission_queue queue_;
  core::batch_former former_;
  common::run_metrics metrics_;
  std::uint64_t last_commit_nanos_ = 0;  ///< completer-written
  common::mutex mu_;
  common::cond_var cv_;
  std::deque<inflight_batch> inflight_ GUARDED_BY(mu_);
  std::uint64_t handed_ GUARDED_BY(mu_) = 0;   ///< submit_batch returned
  std::uint64_t drained_ GUARDED_BY(mu_) = 0;  ///< drain_batch returned
  bool formed_all_ GUARDED_BY(mu_) = false;  ///< queue closed and drained
  std::thread submitter_;
  std::thread completer_;
  std::once_flag close_once_;
};

}  // namespace quecc::proto
