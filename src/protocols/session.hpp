// Client session: the asynchronous submission front door to any engine.
//
// A session turns the engine's batch primitives — submit_batch /
// drain_batch, or run_batch for non-pipelined engines — into a
// server-shaped API: clients call submit() from any number of threads and
// get back a ticket; a pump thread drains the admission queue through a
// batch former (closing batches on size or deadline, see
// core/admission.hpp) and feeds formed batches to the engine. Against a
// pipelined engine (engine::pipeline_depth() >= 2) the pump keeps that
// many batches in flight whenever the admission queue holds a backlog, so
// batch i+1 is being planned while batch i executes; with no backlog it
// drains eagerly so a trickle client never waits on the next batch's
// deadline. Tickets resolve at drain time with the transaction's final
// status plus its queueing delay and end-to-end latency, both measured
// from *submit time* — the quantity a loaded system's clients actually
// experience, which the closed-loop harness cannot see.
//
// Durable ack: the pump calls engine::sync_durable() after every batch,
// *before* resolving tickets. Against a durable engine (config::durable)
// a resolved ticket therefore means the batch's plan and commit records
// are fsynced — the group-commit wait shows up in e2e latency, not as a weaker
// acknowledgement. Against in-memory engines sync_durable is a no-op and
// nothing changes.
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

#include <memory>
#include <mutex>
#include <thread>

#include "common/config.hpp"
#include "common/stats.hpp"
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
      std::uint64_t e2e_nanos = 0;    ///< submit -> batch commit
      std::vector<std::uint64_t> slots;  ///< value-slot results at commit
    };

    /// Block until the transaction's batch committed. Returns an aborted
    /// result immediately on an invalid (default-constructed or rejected)
    /// ticket.
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
  /// batch_size, batch_deadline_micros, and admission_capacity. The pump
  /// thread starts immediately. The session must be the engine's only
  /// driver while it is open (run_batch is single-caller).
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

  /// Fire-and-forget submit: no ticket, so the pump skips the per-txn
  /// result snapshot and wakeup — the cheap path for load generators that
  /// only read the aggregated metrics(). Queue/e2e histograms still record
  /// every posted transaction. Blocks while the admission queue is full,
  /// like submit(). Returns false when the transaction was rejected
  /// (malformed plan, null, or session closed).
  bool post(std::unique_ptr<txn::txn_desc> t, std::uint64_t submit_nanos = 0,
            std::uint32_t client = 0);

  /// Stop accepting submissions, drain every admitted transaction through
  /// the engine, and join the pump thread. Idempotent; concurrent close()
  /// calls are safe (late callers block until the first finishes), though
  /// as with any object no call may race the destructor itself. Also run
  /// by the destructor.
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
  void pump_main();
  static bool prepare(const std::unique_ptr<txn::txn_desc>& t);

  // Synchronization: cross-thread hand-offs go through queue_ (its own
  // mutex) and core::ticket_state (release-publish of `done`); metrics_
  // and last_commit_nanos_ are pump-thread-private until close() joins the
  // pump, whose join is the happens-before edge that makes them readable —
  // hence no lock and no GUARDED_BY on them.
  engine& eng_;
  core::admission_queue queue_;
  core::batch_former former_;
  common::run_metrics metrics_;
  std::uint64_t last_commit_nanos_ = 0;  ///< pump-written; read after close()
  std::thread pump_;
  std::once_flag close_once_;
};

}  // namespace quecc::proto
