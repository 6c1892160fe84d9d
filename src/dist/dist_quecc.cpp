#include "dist/dist_quecc.hpp"

#include "common/spinlock.hpp"

namespace quecc::dist {

namespace {

/// Global view of a per-node configuration: the planner slicing and queue
/// routing in core::planner already understand `nodes`, they just need the
/// cluster-wide thread counts.
common::config globalize(const common::config& cfg) {
  common::config g = cfg;
  g.planner_threads =
      static_cast<worker_id_t>(cfg.planner_threads * cfg.nodes);
  g.executor_threads =
      static_cast<worker_id_t>(cfg.executor_threads * cfg.nodes);
  return g;
}

}  // namespace

dist_quecc_engine::dist_quecc_engine(storage::database& db,
                                     const common::config& cfg)
    : pl_{cfg.nodes, cfg.executor_threads, cfg.planner_threads},
      net_(cfg.nodes, cfg.net_latency_micros),
      // A single node has no remote peer, so no rounds and no hooks.
      driver_(db, globalize(cfg), "dq", cfg.nodes > 1 ? this : nullptr) {}

void dist_quecc_engine::drain_expected(net::node_id_t node,
                                       net::msg_type type,
                                       std::size_t expected) {
  common::backoff bo;
  std::size_t got = 0;
  net::message msg;
  while (got < expected) {
    if (net_.poll(node, msg)) {
      if (msg.type == type) ++got;
      continue;
    }
    bo.spin();
  }
}

void dist_quecc_engine::after_plan(const txn::batch& b) {
  common::mutex_lock nl(net_mu_);
  // Every planner ships one bundle (its E queues for that node's
  // executors) to every remote node. The sends overlap, so all nodes
  // resume after a single one-way latency.
  for (worker_id_t p = 0; p < pl_.total_planners(); ++p) {
    const net::node_id_t from = pl_.node_of_planner(p);
    for (net::node_id_t n = 0; n < pl_.nodes; ++n) {
      if (n == from) continue;
      net_.send({from, n, net::msg_type::plan_queues, p, b.id(), {}});
    }
  }
  const std::size_t remote_planners =
      static_cast<std::size_t>(pl_.total_planners()) - pl_.planners_per_node;
  for (net::node_id_t n = 0; n < pl_.nodes; ++n) {
    drain_expected(n, net::msg_type::plan_queues, remote_planners);
  }
}

void dist_quecc_engine::pre_publish(const txn::batch& b) {
  common::mutex_lock nl(net_mu_);
  for (net::node_id_t n = 1; n < pl_.nodes; ++n) {
    net_.send({n, 0, net::msg_type::batch_done, b.id(), 0, {}});
  }
  drain_expected(0, net::msg_type::batch_done,
                 static_cast<std::size_t>(pl_.nodes) - 1);
}

void dist_quecc_engine::post_publish(const txn::batch& b,
                                     common::run_metrics& m) {
  common::mutex_lock nl(net_mu_);
  net_.broadcast({0, 0, net::msg_type::batch_commit, b.id(), 0, {}});
  for (net::node_id_t n = 1; n < pl_.nodes; ++n) {
    drain_expected(n, net::msg_type::batch_commit, 1);
  }
  // Message accounting by snapshot delta: the network counter is shared
  // with bundle rounds of batches still being planned, so per-batch resets
  // would race — the cumulative delta per retirement attributes every
  // message exactly once across the run.
  const std::uint64_t sent = net_.messages_sent();
  m.messages += sent - last_messages_;
  last_messages_ = sent;
}

}  // namespace quecc::dist
