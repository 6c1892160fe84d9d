// Cluster placement: which node (and which executor on that node) owns a
// storage partition.
//
// The mapping mirrors the centralized planner's queue routing (see
// core/planner.cpp route()): partitions are striped round-robin across the
// cluster's global executor slots, and a node owns the contiguous group of
// executor slots [node * executors_per_node, (node+1) * executors_per_node).
// Keeping the two mappings identical is what lets the distributed
// queue-oriented engine reuse the centralized planning phase verbatim: a
// fragment's queue is "remote" exactly when its home partition's node
// differs from the planner's node.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "net/message.hpp"

namespace quecc::dist {

/// Static cluster shape: N nodes, each running the same number of planner
/// and executor threads. Aggregate initialization order is
/// {nodes, executors_per_node, planners_per_node}.
struct placement {
  net::node_id_t nodes = 1;
  worker_id_t executors_per_node = 1;
  worker_id_t planners_per_node = 1;

  worker_id_t total_executors() const noexcept {
    return static_cast<worker_id_t>(nodes * executors_per_node);
  }
  worker_id_t total_planners() const noexcept {
    return static_cast<worker_id_t>(nodes * planners_per_node);
  }

  /// Global executor slot that anchors partition `p`'s queues. Partitions
  /// wrap round-robin over the executor slots, so clusters with fewer
  /// executors than partitions (or partition counts not divisible by the
  /// node count) still place every partition.
  worker_id_t global_executor_of_part(part_id_t p) const noexcept {
    return static_cast<worker_id_t>(p % total_executors());
  }

  /// Node that owns partition `p`'s records.
  net::node_id_t node_of_part(part_id_t p) const noexcept {
    return static_cast<net::node_id_t>(global_executor_of_part(p) /
                                       executors_per_node);
  }

  /// Node that runs global executor slot `e`.
  net::node_id_t node_of_executor(worker_id_t e) const noexcept {
    return static_cast<net::node_id_t>(e / executors_per_node);
  }

  /// Node that runs global planner slot `p`.
  net::node_id_t node_of_planner(worker_id_t p) const noexcept {
    return static_cast<net::node_id_t>(p / planners_per_node);
  }

  /// Executor index within its node of global executor slot `e`.
  worker_id_t local_executor(worker_id_t e) const noexcept {
    return static_cast<worker_id_t>(e % executors_per_node);
  }
};

}  // namespace quecc::dist
