#include "dist/dist_calvin.hpp"

#include <tuple>

#include "common/thread_util.hpp"
#include "protocols/local_host.hpp"

namespace quecc::dist {

dist_calvin_engine::dist_calvin_engine(storage::database& db,
                                       const common::config& cfg,
                                       const char* display_name)
    : db_(db),
      cfg_(cfg),
      display_name_(display_name),
      pl_{cfg.nodes, cfg.executor_threads, cfg.planner_threads},
      net_(cfg.nodes, cfg.net_latency_micros),
      locks_(cfg.nodes),
      ready_(cfg.nodes),
      mailbox_(cfg.nodes) {
  cfg_.validate();
}

namespace {

/// Calls fn(p) for every partition `f` touches: all of them for a kAllParts
/// scan, its home partition otherwise.
template <typename Fn>
void for_each_part(const txn::fragment& f, part_id_t parts, Fn fn) {
  if (f.part != txn::kAllParts) {
    fn(f.part);
    return;
  }
  for (part_id_t p = 0; p < parts; ++p) fn(p);
}

}  // namespace

void dist_calvin_engine::lock_set(
    const txn::txn_desc& t,
    std::vector<std::tuple<net::node_id_t, std::uint64_t, bool>>& out) const {
  out.clear();
  for (const auto& f : t.frags) {
    // Tables on an ordered index lock per (table, partition), the unit
    // quecc routes them by (core/planner.cpp): a scan conflicts with every
    // key in its range, inserts and erases included, which point locks
    // cannot order.
    const bool ordered =
        db_.at(f.table).index() == storage::index_kind::ordered;
    const bool exclusive = f.updates_database();
    for_each_part(f, cfg_.partitions, [&](part_id_t p) {
      const std::uint64_t rec = record_hash(f.table, ordered ? p : f.key);
      bool found = false;
      for (auto& [n, r, x] : out) {
        if (r == rec) {
          x = x || exclusive;  // strongest required mode
          found = true;
          break;
        }
      }
      if (!found) out.emplace_back(pl_.node_of_part(p), rec, exclusive);
    });
  }
}

void dist_calvin_engine::ensure_pool() {
  if (pool_) return;
  const unsigned workers =
      static_cast<unsigned>(cfg_.nodes) * cfg_.worker_threads;
  worker_metrics_.resize(workers);
  pool_ = std::make_unique<common::batch_pool>(
      workers, [this](unsigned w) { worker_job(w); }, display_name_,
      cfg_.pin_threads);
}

void dist_calvin_engine::push_ready(net::node_id_t node, seq_t s) {
  node_ready& r = ready_[node];
  common::spin_guard guard(r.latch);
  r.q.push_back(s);  // capacity reserved per batch: no reallocation
  r.count.fetch_add(1, std::memory_order_release);
}

bool dist_calvin_engine::pop_ready(net::node_id_t node, seq_t& s) {
  node_ready& r = ready_[node];
  common::backoff bo;
  while (true) {
    // relaxed: head is only advanced by the CAS below (acq_rel); the
    // acquire load of count is what pairs with the producer's release.
    const std::size_t h = r.head.load(std::memory_order_relaxed);
    const std::size_t c = r.count.load(std::memory_order_acquire);
    if (h < c) {
      std::size_t expect = h;
      if (r.head.compare_exchange_weak(expect, h + 1,
                                       std::memory_order_acq_rel)) {
        s = r.q[h];
        return true;
      }
      continue;
    }
    if (remaining_.load(std::memory_order_acquire) == 0) return false;
    bo.spin();
  }
}

void dist_calvin_engine::sequence(txn::batch& b) {
  if (pl_.nodes <= 1) return;
  // Drain node 0's stale txn_release notifications from the previous
  // batch here; the wait loop below does the same for every other node as
  // a side effect (stale messages were delivered before this batch's
  // seq_slice), so no inbox grows across batches.
  net::message stale;
  while (net_.poll(0, stale)) {
  }
  // Epoch replication: the sequencer (node 0) ships the ordered batch
  // input to every scheduler; payloads stay in shared memory (see
  // net/message.hpp), the broadcast pays the message count and one one-way
  // latency.
  net_.broadcast({0, 0, net::msg_type::seq_slice, b.id(), 0, {}});
  for (net::node_id_t n = 1; n < pl_.nodes; ++n) {
    common::backoff bo;
    net::message msg;
    bool got = false;
    while (!got) {
      if (net_.poll(n, msg)) {
        got = msg.type == net::msg_type::seq_slice;  // drop stale releases
        continue;
      }
      bo.spin();
    }
  }
}

void dist_calvin_engine::run_batch(txn::batch& b, common::run_metrics& m) {
  ensure_pool();
  common::stopwatch sw;
  current_ = &b;
  batch_start_nanos_ = common::now_nanos();
  net_.reset_counters();
  sequence(b);

  for (auto& nl : locks_) {
    // Workers are quiescent between batches, but clear under the latch
    // anyway: the guarded-access contract stays unconditional.
    for (auto& s : nl.stripes) {
      common::spin_guard guard(s.latch);
      s.locks.clear();
    }
  }
  for (auto& wm : worker_metrics_) wm = common::run_metrics{};

  // Pre-pass: home node, participant set, ungranted-lock and remote-read
  // counters for every transaction — before workers can touch them.
  // Atomic vectors cannot resize (atomics are immovable); reallocate only
  // when the batch outgrows them and zero in place otherwise.
  if (pending_locks_.size() < b.size()) {
    pending_locks_ = std::vector<std::atomic<std::uint32_t>>(b.size());
    reads_arrived_ = std::vector<std::atomic<std::uint32_t>>(b.size());
  }
  // relaxed: pre-pass runs before begin_round() releases the workers.
  for (std::size_t i = 0; i < b.size(); ++i) {
    reads_arrived_[i].store(0, std::memory_order_relaxed);
  }
  home_.assign(b.size(), 0);
  participants_.resize(b.size());
  lock_sets_.resize(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const txn::txn_desc& t = b.at(i);
    auto& parts = participants_[i];
    parts.clear();
    for (const auto& f : t.frags) {
      for_each_part(f, cfg_.partitions, [&](part_id_t q) {
        const net::node_id_t n = pl_.node_of_part(q);
        bool found = false;
        for (const net::node_id_t p : parts) found = found || p == n;
        if (!found) parts.push_back(n);
      });
    }
    home_[i] = parts.empty() ? net::node_id_t{0} : parts.front();
    lock_set(t, lock_sets_[i]);
    // relaxed: pre-pass, before workers start (see above).
    pending_locks_[i].store(static_cast<std::uint32_t>(lock_sets_[i].size()),
                            std::memory_order_relaxed);
  }
  for (auto& r : ready_) {
    r.q.clear();
    r.q.reserve(b.size());
    // relaxed: pre-pass, before workers start (see above).
    r.head.store(0, std::memory_order_relaxed);
    r.count.store(0, std::memory_order_relaxed);
  }
  remaining_.store(static_cast<std::uint32_t>(b.size()),
                   std::memory_order_release);

  pool_->begin_round();
  schedule(b);  // the folded per-node deterministic lock schedulers
  pool_->end_round();

  for (auto& wm : worker_metrics_) m.merge_txn_outcomes(wm);
  m.messages += net_.messages_sent();
  m.batches += 1;
  m.elapsed_seconds += sw.seconds();
}

void dist_calvin_engine::schedule(txn::batch& b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    const auto seq = static_cast<seq_t>(i);
    const auto& set = lock_sets_[i];
    if (set.empty()) {
      push_ready(home_[seq], seq);
      continue;
    }
    for (const auto& [node, rec, exclusive] : set) {
      stripe& st = stripe_of(node, rec);
      bool granted = false;
      {
        common::spin_guard guard(st.latch);
        lock_entry& e = st.locks[rec];
        if (e.waiters.empty() &&
            (e.holders == 0 || (!exclusive && !e.held_exclusive))) {
          e.held_exclusive = e.holders == 0 ? exclusive : e.held_exclusive;
          e.holders += 1;
          granted = true;
        } else {
          e.waiters.push_back({seq, exclusive});
        }
      }
      if (granted &&
          pending_locks_[seq].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        push_ready(home_[seq], seq);
      }
    }
  }
}

void dist_calvin_engine::release_locks(seq_t seq) {
  std::vector<seq_t> newly_ready;
  for (const auto& [node, rec, exclusive] : lock_sets_[seq]) {
    (void)exclusive;
    stripe& st = stripe_of(node, rec);
    std::vector<seq_t> granted;
    {
      common::spin_guard guard(st.latch);
      lock_entry& e = st.locks[rec];
      e.holders -= 1;
      if (e.holders == 0) e.held_exclusive = false;
      // FIFO grant: head waiter, then consecutive shared waiters.
      while (!e.waiters.empty()) {
        const lock_request& w = e.waiters.front();
        const bool can_grant =
            e.holders == 0 || (!w.exclusive && !e.held_exclusive);
        if (!can_grant) break;
        e.held_exclusive = e.holders == 0 ? w.exclusive : e.held_exclusive;
        e.holders += 1;
        granted.push_back(w.seq);
        e.waiters.erase(e.waiters.begin());
        if (e.held_exclusive) break;
      }
    }
    for (const seq_t s : granted) {
      if (pending_locks_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        newly_ready.push_back(s);
      }
    }
  }
  for (const seq_t s : newly_ready) push_ready(home_[s], s);
}

void dist_calvin_engine::collect_remote_reads(net::node_id_t home,
                                              seq_t seq) {
  const auto& parts = participants_[seq];
  if (parts.size() <= 1) return;
  // Each remote participant forwards its local reads to the home node;
  // the home worker stalls until every forward is delivered. Concurrent
  // waiters on the same node share one inbox, so polling is serialized and
  // every drained forward is credited to its own transaction.
  for (const net::node_id_t n : parts) {
    if (n == home) continue;
    net_.send({n, home, net::msg_type::remote_reads, seq, 0, {}});
  }
  const auto need = static_cast<std::uint32_t>(parts.size() - 1);
  common::backoff bo;
  while (reads_arrived_[seq].load(std::memory_order_acquire) < need) {
    net::message msg;
    bool got = false;
    {
      common::spin_guard guard(mailbox_[home].latch);
      got = net_.poll(home, msg);
    }
    if (got) {
      if (msg.type == net::msg_type::remote_reads) {
        reads_arrived_[msg.a].fetch_add(1, std::memory_order_acq_rel);
      }
      continue;  // txn_release notifications are latch-free here: dropped
    }
    bo.spin();
  }
}

void dist_calvin_engine::worker_job(unsigned worker) {
  txn::batch& b = *current_;
  common::run_metrics& wm = worker_metrics_[worker];
  const auto node = static_cast<net::node_id_t>(worker / cfg_.worker_threads);
  proto::inplace_host host(db_);

  seq_t s;
  while (pop_ready(node, s)) {
    txn::txn_desc& t = b.at(s);
    collect_remote_reads(node, s);
    if (proto::run_txn_serially(t, host)) {
      wm.committed += 1;
    } else {
      wm.aborted += 1;
    }
    wm.txn_latency.record_nanos(common::now_nanos() - batch_start_nanos_);
    // Home tells remote participants the txn is done: release local locks.
    for (const net::node_id_t n : participants_[s]) {
      if (n != node) {
        net_.send({node, n, net::msg_type::txn_release, s, 0, {}});
      }
    }
    release_locks(s);
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace quecc::dist
