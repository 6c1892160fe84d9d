// Tests for the simulated cluster: network semantics, partition placement,
// and message accounting of the distributed queue-oriented engine and
// distributed Calvin. Their equivalence with serial execution at 1-4 nodes
// is test_oracle's.
#include <gtest/gtest.h>

#include <thread>

#include "dist/dist_calvin.hpp"
#include "dist/dist_quecc.hpp"
#include "dist/partitioner.hpp"
#include "net/network.hpp"
#include "test_util.hpp"
#include "workload/bank.hpp"
#include "workload/ycsb.hpp"

namespace quecc {
namespace {

TEST(Network, LoopbackIsImmediateAndFree) {
  net::network n(2, 1000);
  n.send({0, 0, net::msg_type::batch_done, 7, 0, {}});
  net::message m;
  ASSERT_TRUE(n.poll(0, m));
  EXPECT_EQ(m.a, 7u);
  EXPECT_EQ(n.messages_sent(), 0u);  // loopback not billed
}

TEST(Network, RemoteMessagesPayLatency) {
  net::network n(2, 3000);  // 3ms
  n.send({0, 1, net::msg_type::batch_done, 1, 0, {}});
  EXPECT_EQ(n.messages_sent(), 1u);
  net::message m;
  EXPECT_FALSE(n.poll(1, m));  // not due yet
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(n.poll(1, m));
  EXPECT_EQ(m.from, 0);
}

TEST(Network, BroadcastSkipsSender) {
  net::network n(3, 0);
  n.broadcast({1, 0, net::msg_type::batch_commit, 0, 0, {}});
  net::message m;
  EXPECT_TRUE(n.poll(0, m));
  EXPECT_FALSE(n.poll(1, m));
  EXPECT_TRUE(n.poll(2, m));
  EXPECT_EQ(n.messages_sent(), 2u);
}

TEST(Placement, PartitionToNodeMapping) {
  dist::placement p{4, 2, 1};  // 4 nodes, 2 executors each
  EXPECT_EQ(p.total_executors(), 8);
  EXPECT_EQ(p.global_executor_of_part(0), 0);
  EXPECT_EQ(p.node_of_part(0), 0);
  EXPECT_EQ(p.node_of_part(2), 1);
  EXPECT_EQ(p.node_of_part(7), 3);
  EXPECT_EQ(p.node_of_part(8), 0);  // wraps
  EXPECT_EQ(p.node_of_executor(5), 2);
}

TEST(Placement, PartitionsNotDivisibleByNodes) {
  dist::placement p{3, 2, 1};  // 6 executor slots, partitions wrap over them
  EXPECT_EQ(p.total_executors(), 6);
  EXPECT_EQ(p.node_of_part(5), 2);
  EXPECT_EQ(p.node_of_part(6), 0);  // 7 partitions % 6 slots: back to node 0
  EXPECT_EQ(p.node_of_part(7), 0);
  for (part_id_t q = 0; q < 64; ++q) {
    // Wrap is stable (same partition, same node) and always in range.
    EXPECT_EQ(p.node_of_part(q),
              p.node_of_part(static_cast<part_id_t>(q % 6)));
    EXPECT_LT(p.node_of_part(q), p.nodes);
  }
}

TEST(Placement, SingleExecutorNodes) {
  dist::placement p{4, 1, 1};  // one executor per node: node == slot
  EXPECT_EQ(p.total_executors(), 4);
  EXPECT_EQ(p.total_planners(), 4);
  for (part_id_t q = 0; q < 12; ++q) {
    EXPECT_EQ(p.global_executor_of_part(q), q % 4);
    EXPECT_EQ(p.node_of_part(q), q % 4);
    EXPECT_EQ(p.local_executor(p.global_executor_of_part(q)), 0);
  }
  EXPECT_EQ(p.node_of_executor(3), 3);
  EXPECT_EQ(p.node_of_planner(2), 2);
}

common::config dist_cfg(std::uint16_t nodes, std::uint32_t latency_us = 20) {
  common::config cfg;
  cfg.nodes = nodes;
  cfg.planner_threads = 1;   // per node
  cfg.executor_threads = 1;  // per node
  cfg.worker_threads = 2;    // per node (Calvin workers)
  cfg.partitions = static_cast<part_id_t>(nodes * 2);
  cfg.net_latency_micros = latency_us;
  return cfg;
}

TEST(Placement, EnginesHandleNonDivisiblePartitions) {
  // 7 partitions over 3 nodes: the wrap path runs inside both engines.
  wl::ycsb_config wcfg;
  wcfg.table_size = 4096;
  wcfg.partitions = 7;
  wcfg.multi_partition_ratio = 0.3;
  wcfg.mp_parts = 2;
  auto w = wl::ycsb(wcfg);

  common::config cfg = dist_cfg(3);
  cfg.partitions = 7;

  for (int engine = 0; engine < 2; ++engine) {
    auto db = testutil::make_loaded_db(w);
    auto db_serial = db->clone();
    common::rng r(31);
    auto b = w.make_batch(r, 256);
    common::run_metrics m;
    if (engine == 0) {
      dist::dist_quecc_engine eng(*db, cfg);
      eng.run_batch(b, m);
    } else {
      dist::dist_calvin_engine eng(*db, cfg, "dist-calvin");
      eng.run_batch(b, m);
    }
    testutil::replay_in_seq_order(*db_serial, b);
    EXPECT_EQ(db->state_hash(), db_serial->state_hash()) << engine;
    EXPECT_GT(m.messages, 0u);
  }
}

TEST(DistBehaviour, QueccCommitCostIsPerBatchNotPerTxn) {
  // The headline structural claim (Section 2.2): queue-oriented commit
  // needs a constant number of messages per batch, while Calvin pays per
  // distributed transaction.
  wl::ycsb_config wcfg;
  wcfg.table_size = 8192;
  wcfg.partitions = 8;
  wcfg.multi_partition_ratio = 1.0;  // every txn is distributed
  wcfg.mp_parts = 2;
  auto w = wl::ycsb(wcfg);

  const auto cfg = dist_cfg(4, 5);

  auto db1 = testutil::make_loaded_db(w);
  common::rng r1(19);
  auto b1 = w.make_batch(r1, 400);
  common::run_metrics mq;
  {
    dist::dist_quecc_engine eng(*db1, cfg);
    eng.run_batch(b1, mq);
  }

  auto db2 = testutil::make_loaded_db(w);
  common::rng r2(19);
  auto b2 = w.make_batch(r2, 400);
  common::run_metrics mc;
  {
    dist::dist_calvin_engine eng(*db2, cfg, "dist-calvin");
    eng.run_batch(b2, mc);
  }

  // dist-quecc: P*(N-1) plan bundles + (N-1) dones + (N-1) commits ≈ 10.
  // dist-calvin: sequencing + 2 messages per distributed txn ≈ hundreds.
  EXPECT_LT(mq.messages, 50u);
  EXPECT_GT(mc.messages, 400u);
}

TEST(DistBehaviour, BankInvariantAcrossNodes) {
  wl::bank_config wcfg;
  wcfg.accounts = 1024;
  wcfg.partitions = 8;
  auto w = wl::bank(wcfg);

  for (int engine = 0; engine < 2; ++engine) {
    auto db = testutil::make_loaded_db(w);
    const auto expected = w.total_balance(*db);
    common::rng r(23);
    common::run_metrics m;
    auto cfg = dist_cfg(4);
    if (engine == 0) {
      dist::dist_quecc_engine eng(*db, cfg);
      for (int i = 0; i < 2; ++i) {
        auto b = w.make_batch(r, 256, static_cast<std::uint32_t>(i));
        eng.run_batch(b, m);
      }
    } else {
      dist::dist_calvin_engine eng(*db, cfg, "dist-calvin");
      for (int i = 0; i < 2; ++i) {
        auto b = w.make_batch(r, 256, static_cast<std::uint32_t>(i));
        eng.run_batch(b, m);
      }
    }
    EXPECT_EQ(w.total_balance(*db), expected);
    EXPECT_GT(m.aborted, 0u);
  }
}

}  // namespace
}  // namespace quecc
