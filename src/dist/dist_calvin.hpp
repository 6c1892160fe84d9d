// Calvin deterministic locking (Thomson et al., SIGMOD'12; the deterministic
// ordered execution of Saad et al.'s "Processing Transactions in a
// Predefined Order" follows the same contract) over the simulated cluster.
// This one engine serves both Table 2 baselines: "dist-calvin" runs
// cfg.nodes nodes, and "calvin" is the same engine at one node.
//
// A sequencer replicates the batch input to every node, each node's
// deterministic lock scheduler walks the replicated sequence acquiring
// locks for locally-homed records in sequence order (strictly FIFO grants
// per record, so execution is equivalent to sequence order; a record of a
// table on an ordered index is a whole partition of it, so range scans
// order against the writes inside their range), and workers
// execute transactions once every lock is granted — thread-to-transaction
// assignment, the paper's Section 5 contrast with thread-to-queue.
//
// Unlike the queue-oriented engine, communication scales with the number of
// *distributed transactions*: a transaction touching k > 1 nodes pays
// (k-1) remote_reads messages (participants forward their local reads to
// the home node, which stalls until they are delivered) plus (k-1)
// txn_release notifications on completion — the per-transaction cost the
// DistBehaviour.QueccCommitCostIsPerBatchNotPerTxn test contrasts with
// dist-quecc's constant per-batch bill.
//
// Simulation notes (the in-process cluster of net/message.hpp): nodes
// share one process and one storage engine, so a single worker executes
// the whole transaction after the remote-read stall, and the N per-node
// schedulers — which would each walk the identical replicated sequence —
// are folded into one pass in sequence order over per-node lock tables,
// run by the run_batch thread; both foldings preserve the protocol's
// determinism and its message/latency bill. At one node the sequencer
// broadcast, the remote-read round and the release notifications all
// vanish (no message is sent), and what remains is centralized Calvin:
// one single-threaded lock scheduler — Calvin's well-known bottleneck and
// the effect the single-node comparison measures.
//
// Every node's lock table has 64 stripes. The scheduler thread contends
// with every worker releasing locks on that node, so a single node needs
// the full 64 to keep the release path from serializing on a stripe latch
// (16 stripes measured ~5% slower on single-node YCSB, 4 workers, 4 CPUs).
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/batch_pool.hpp"
#include "common/spinlock.hpp"
#include "common/thread_annotations.hpp"
#include "dist/partitioner.hpp"
#include "net/network.hpp"
#include "protocols/iface.hpp"

namespace quecc::dist {

class dist_calvin_engine final : public proto::engine {
 public:
  /// `cfg.worker_threads` is per node: the cluster runs
  /// cfg.nodes * cfg.worker_threads Calvin workers. `display_name` is
  /// name() and the worker threads' name prefix.
  dist_calvin_engine(storage::database& db, const common::config& cfg,
                     const char* display_name);

  const char* name() const noexcept override { return display_name_; }
  void run_batch(txn::batch& b, common::run_metrics& m) override;

  const placement& cluster() const noexcept { return pl_; }

 private:
  struct lock_request {
    seq_t seq;
    bool exclusive;
  };
  struct lock_entry {
    bool held_exclusive = false;
    std::uint32_t holders = 0;
    std::vector<lock_request> waiters;  // FIFO, seq order by construction
  };
  struct stripe {
    common::spinlock latch;
    std::unordered_map<std::uint64_t, lock_entry> locks GUARDED_BY(latch);
  };
  static constexpr std::size_t kStripesPerNode = 64;
  /// One lock table (kStripesPerNode stripes) per node.
  struct node_locks {
    std::array<stripe, kStripesPerNode> stripes;
  };
  /// Per-node ready queue: txns homed at the node whose locks are granted.
  ///
  /// Hybrid protocol, deliberately not GUARDED_BY: producers push under the
  /// latch and release-publish via count; consumers pop latch-free — they
  /// acquire-load count, CAS head forward, and read q[h], which the
  /// publishing release made visible. q never reallocates mid-batch
  /// (capacity reserved up front), so the unlatched read is stable.
  struct node_ready {
    common::spinlock latch;  ///< serializes producers only
    std::vector<seq_t> q;
    std::atomic<std::size_t> head{0};
    std::atomic<std::size_t> count{0};
  };
  /// Serializes a node's workers polling the shared inbox.
  struct node_mailbox {
    common::spinlock latch;
  };

  void worker_job(unsigned worker);
  void ensure_pool();
  void sequence(txn::batch& b);
  void schedule(txn::batch& b);
  void release_locks(seq_t seq);
  void push_ready(net::node_id_t node, seq_t s);
  bool pop_ready(net::node_id_t node, seq_t& s);

  /// Stall for the home node's remote-read round of distributed txn `seq`
  /// (bills (k-1) messages, waits one one-way latency), run nothing if the
  /// transaction is single-node.
  void collect_remote_reads(net::node_id_t home, seq_t seq);

  stripe& stripe_of(net::node_id_t node, std::uint64_t rec) noexcept {
    return locks_[node].stripes[rec % kStripesPerNode];
  }

  /// Declared lock set: unique records with home node and strongest mode.
  void lock_set(const txn::txn_desc& t,
                std::vector<std::tuple<net::node_id_t, std::uint64_t, bool>>&
                    out) const;

  storage::database& db_;
  common::config cfg_;
  const char* display_name_;
  placement pl_;
  net::network net_;
  std::unique_ptr<common::batch_pool> pool_;

  txn::batch* current_ = nullptr;
  std::uint64_t batch_start_nanos_ = 0;
  std::vector<node_locks> locks_;        // [node]
  std::vector<node_ready> ready_;       // [node]
  std::vector<std::atomic<std::uint32_t>> pending_locks_;  // [seq]
  /// Per-txn declared lock sets, computed once per batch in the pre-pass
  /// and reused by schedule() and release_locks().
  std::vector<std::vector<std::tuple<net::node_id_t, std::uint64_t, bool>>>
      lock_sets_;                                          // [seq]
  std::vector<net::node_id_t> home_;                       // [seq]
  std::vector<std::vector<net::node_id_t>> participants_;  // [seq]
  std::vector<std::atomic<std::uint32_t>> reads_arrived_;  // [seq]
  std::vector<node_mailbox> mailbox_;                      // [node]
  std::atomic<std::uint32_t> remaining_{0};
  std::vector<common::run_metrics> worker_metrics_;
};

}  // namespace quecc::dist
