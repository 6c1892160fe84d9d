// Messages exchanged between simulated nodes.
//
// The cluster is simulated in-process (every node shares one process and
// one storage engine): payloads that would be serialized in a real
// deployment (fragment queues, read results) stay in shared memory, while the *cost* of communication — per-message latency
// and message counts — is modeled by the network. Messages therefore carry
// only small scalar operands identifying what became available.
#pragma once

#include <chrono>
#include <cstdint>

namespace quecc::net {

using node_id_t = std::uint16_t;
using sim_clock = std::chrono::steady_clock;

/// Message kinds across both distributed engines. One enum keeps tracing
/// simple; engines ignore kinds they never send.
enum class msg_type : std::uint16_t {
  // distributed queue-oriented engine
  plan_queues,   ///< planner bundle for a remote node is ready
  batch_done,    ///< node finished executing its queues
  batch_commit,  ///< coordinator: batch committed, proceed

  // distributed Calvin
  seq_slice,     ///< sequencer input slice broadcast (epoch replication)
  remote_reads,  ///< participant's local reads forwarded to the home node
  txn_release,   ///< home node: transaction done, release local locks
};

struct message {
  node_id_t from = 0;
  node_id_t to = 0;
  msg_type type = msg_type::plan_queues;
  std::uint64_t a = 0;  ///< operand (txn seq, planner id, batch id, ...)
  std::uint64_t b = 0;
  sim_clock::time_point deliver_at{};
};

}  // namespace quecc::net
