// Common engine interface: every transaction processing protocol in the
// repository (the queue-oriented engine and all ported baselines) plugs in
// here, mirroring how the paper ports all protocols into the single
// ExpoDB test-bed for apples-to-apples comparison (Section 4).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "storage/database.hpp"
#include "txn/batch.hpp"

namespace quecc::proto {

class engine {
 public:
  virtual ~engine() = default;

  virtual const char* name() const noexcept = 0;

  /// Process one batch of transactions to completion, accumulating
  /// throughput / abort / latency metrics into `m`. On return every
  /// transaction in `b` has a final status (committed or aborted) and the
  /// database reflects exactly the committed transactions' effects.
  /// Pipelined engines drain every in-flight batch first, so a run_batch
  /// call always returns with the engine quiescent.
  virtual void run_batch(txn::batch& b, common::run_metrics& m) = 0;

  // --- pipelined batch API ------------------------------------------------
  // Engines whose two Figure 1 stages are independent across batches
  // (pipeline_depth() >= 2) accept up to that many batches in flight:
  // submit_batch hands a batch to the planning stage and returns while the
  // previous batch is still executing; drain_batch retires the oldest
  // in-flight batch (execution + commit epilogue complete, statuses
  // final). Batches drain strictly in submission order. `b` and `m` must
  // stay alive until the matching drain.
  //
  // Callers: either one thread drives submission and draining, or two
  // threads split them — exactly one submitter (submit_batch) and one
  // drainer (drain_batch, then sync_durable). In the split form the
  // submitter keeps at most pipeline_depth() batches undrained, waiting
  // for the drainer before it submits more, so submit_batch never retires
  // a batch on the submitter's behalf. The drainer treats a batch as
  // retired only once its submit_batch call has also returned: a depth-1
  // engine does the whole batch inside that call. proto::session is the
  // split form. run_batch stays single-caller and overlaps neither.

  /// Hand `b` to the engine. Default (non-pipelined engines): process it
  /// synchronously — submit_batch + drain_batch then behaves exactly like
  /// run_batch. Pipelined engines return once the planning stage owns the
  /// batch; if the pipeline is full they first retire the oldest batch.
  virtual void submit_batch(txn::batch& b, common::run_metrics& m) {
    run_batch(b, m);
  }

  /// Retire the oldest in-flight batch: block until it finished executing,
  /// run its commit epilogue, and free its pipeline slot. Returns false
  /// when nothing was in flight (always, for non-pipelined engines — their
  /// submit_batch already completed the work).
  virtual bool drain_batch() { return false; }

  /// How many batches this engine can usefully keep in flight (1 = the
  /// submit/drain pair degenerates to run_batch). Callers use it to bound
  /// their in-flight window.
  virtual std::uint32_t pipeline_depth() const noexcept { return 1; }

  /// Commit order (txn seqs) of the most recent batch, when the protocol
  /// tracks one. Deterministic engines return nullptr: their equivalent
  /// serial order is always sequence order. Property tests re-execute the
  /// batch serially in this order to verify serializability.
  virtual const std::vector<seq_t>* commit_order() const noexcept {
    return nullptr;
  }

  /// Block until every batch drained (or run) so far is durable on stable
  /// storage.
  /// No-op for engines without a durability layer (the queue engines
  /// without config::durable, and every baseline). Called by the thread
  /// that drains. proto::session's completer calls this after each batch,
  /// before resolving tickets, which is what makes ticket::wait a *durable*
  /// acknowledgement; the closed-loop harness calls it when
  /// run_options::durability is set.
  virtual void sync_durable() {}
};

/// Instantiate an engine by name. Centralized:
///   "quecc", "serial", "2pl-nowait", "2pl-waitdie", "silo", "tictoc",
///   "mvto", "hstore", "calvin".
/// Distributed (simulated cluster, cfg.nodes nodes):
///   "dist-quecc", "dist-calvin".
/// "calvin" and "dist-calvin" are one engine (dist::dist_calvin_engine):
/// "calvin" runs it at one node, ignoring cfg.nodes.
/// Throws std::invalid_argument for unknown names.
std::unique_ptr<engine> make_engine(const std::string& name,
                                    storage::database& db,
                                    const common::config& cfg);

/// Every name make_engine accepts, in presentation order.
std::vector<std::string> engine_names();

}  // namespace quecc::proto
