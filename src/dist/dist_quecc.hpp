// Distributed queue-oriented engine over the simulated cluster (paper
// Section 2.2 / the scale-out design of "Highly Available Queue-oriented
// Speculative Transaction Processing").
//
// Every node runs its own planners and executors; planning produces, per
// planner, one fragment-queue bundle per node. Bundles destined for remote
// nodes are shipped over net::network (payloads stay in shared memory —
// see net/message.hpp — the network models delivery latency and message
// counts), and a node's executors start draining only after every remote
// bundle addressed to the node has been delivered. Commitment needs no
// 2PC: the two deterministic phases make the commit decision implicit, so
// the batch ends with a single done/commit round through the coordinator —
// messages per batch are constant:
//
//     planners * (nodes - 1)  plan bundles
//   + (nodes - 1)             batch_done   (participant -> coordinator)
//   + (nodes - 1)             batch_commit (coordinator broadcast)
//
// independent of how many transactions are distributed — the structural
// contrast with per-transaction commit protocols that dist_calvin (and the
// test DistBehaviour.QueccCommitCostIsPerBatchNotPerTxn) measures.
//
// The pipeline, durability and accounting are the shared stage machine
// (core/stage_driver.hpp) over the cluster-wide planner/executor counts;
// this engine adds only the three network rounds as its stage hooks: the
// last planner ships the bundles (after-plan), the done round runs at the
// quiescent point (pre-publish), and the commit broadcast — which mutates
// no database state — overlaps the next batch's execution (post-publish).
// All rounds run under net_mu_ so a bundle shipment for batch i+1 never
// steals the done/commit messages of batch i.
#pragma once

#include "common/config.hpp"
#include "common/mutex.hpp"
#include "common/phase_annotations.hpp"
#include "common/thread_annotations.hpp"
#include "core/stage_driver.hpp"
#include "dist/partitioner.hpp"
#include "net/network.hpp"
#include "protocols/iface.hpp"

namespace quecc::dist {

class dist_quecc_engine final : public proto::engine,
                                private core::stage_hooks {
 public:
  /// `cfg` thread counts are per node: a cluster of cfg.nodes nodes runs
  /// cfg.planner_threads planners and cfg.executor_threads executors each.
  dist_quecc_engine(storage::database& db, const common::config& cfg);

  const char* name() const noexcept override { return "dist-quecc"; }
  void run_batch(txn::batch& b, common::run_metrics& m) override {
    driver_.run_batch(b, m);
  }
  void submit_batch(txn::batch& b, common::run_metrics& m) override {
    driver_.submit_batch(b, m);
  }
  bool drain_batch() override { return driver_.drain_batch(); }
  std::uint32_t pipeline_depth() const noexcept override {
    return driver_.pipeline_depth();
  }
  void sync_durable() override { driver_.sync_durable(); }

  const placement& cluster() const noexcept { return pl_; }
  const core::phase_stats& last_phases() const noexcept {
    return driver_.last_phases();
  }
  const core::recovery_stats& last_recovery() const noexcept {
    return driver_.last_recovery();
  }

 private:
  /// Plan-bundle round: every planner's remote queue bundles are shipped
  /// and each node receives all bundles addressed to it (one one-way
  /// latency, since the sends overlap).
  PLAN_PHASE void after_plan(const txn::batch& b) override;
  /// Done round: participants report batch_done to the coordinator.
  EPILOGUE_PHASE void pre_publish(const txn::batch& b) override;
  /// Commit round: the coordinator broadcasts batch_commit. Also bills the
  /// batch's messages to `m`.
  EPILOGUE_PHASE void post_publish(const txn::batch& b,
                                   common::run_metrics& m) override;

  void drain_expected(net::node_id_t node, net::msg_type type,
                      std::size_t expected) REQUIRES(net_mu_);

  placement pl_;
  /// Serializes every use of net_: each round consumes exactly the
  /// messages it produced before releasing it, so rounds of overlapping
  /// batches cannot steal each other's messages. Never nested with the
  /// driver's stage mutex.
  common::mutex net_mu_;
  net::network net_ GUARDED_BY(net_mu_);
  /// Net counter snapshot at the last retirement (post_publish only).
  std::uint64_t last_messages_ = 0;

  /// Declared last: its destructor drains in-flight batches through the
  /// hooks, which use every member above.
  core::stage_driver driver_;
};

}  // namespace quecc::dist
