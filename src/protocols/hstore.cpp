#include "protocols/hstore.hpp"

#include <algorithm>
#include <chrono>

#include "common/spinlock.hpp"
#include "common/thread_util.hpp"
#include "protocols/local_host.hpp"

namespace quecc::proto {


hstore_engine::hstore_engine(storage::database& db,
                             const common::config& cfg)
    : db_(db), cfg_(cfg) {
  cfg_.validate();
  lists_.resize(cfg_.partitions);
}

void hstore_engine::ensure_pool() {
  if (pool_) return;
  worker_metrics_.resize(cfg_.partitions);
  pool_ = std::make_unique<common::batch_pool>(
      cfg_.partitions, [this](unsigned w) { worker_job(w); }, "hstore",
      cfg_.pin_threads);
}

void hstore_engine::run_batch(txn::batch& b, common::run_metrics& m) {
  ensure_pool();
  common::stopwatch sw;
  current_ = &b;
  batch_start_nanos_ = common::now_nanos();
  for (auto& l : lists_) l.clear();
  mp_states_.clear();
  for (auto& wm : worker_metrics_) wm = common::run_metrics{};

  // Classify transactions and build per-partition ordered work lists.
  // Every participant sees a multi-partition transaction at the same
  // relative position, so the rendezvous below cannot deadlock.
  std::vector<part_id_t> parts;
  for (std::uint32_t i = 0; i < b.size(); ++i) {
    const txn::txn_desc& t = b.at(i);
    parts.clear();
    for (const auto& f : t.frags) {
      // Reads of replicated tables (TPC-C ITEM) are served locally by any
      // partition, exactly like H-Store's replicated dimension tables.
      if (!f.updates_database() && db_.at(f.table).replicated()) continue;
      const auto p = static_cast<part_id_t>(f.part % cfg_.partitions);
      bool seen = false;
      for (const auto q : parts) seen = seen || q == p;
      if (!seen) parts.push_back(p);
    }
    // A transaction touching only replicated tables runs anywhere.
    if (parts.empty()) parts.push_back(0);
    if (parts.size() == 1) {
      lists_[parts[0]].emplace_back(i, -1);
    } else {
      auto st = std::make_unique<mp_state>();
      st->participants = static_cast<std::uint32_t>(parts.size());
      st->home = *std::min_element(parts.begin(), parts.end());
      const auto mp = static_cast<std::int32_t>(mp_states_.size());
      mp_states_.push_back(std::move(st));
      for (const auto p : parts) lists_[p].emplace_back(i, mp);
    }
  }

  pool_->run_round();

  for (auto& wm : worker_metrics_) m.merge_txn_outcomes(wm);
  m.batches += 1;
  m.elapsed_seconds += sw.seconds();
}

void hstore_engine::worker_job(unsigned worker) {
  txn::batch& b = *current_;
  common::run_metrics& wm = worker_metrics_[worker];
  inplace_host host(db_);

  auto execute = [&](txn::txn_desc& t) {
    if (run_txn_serially(t, host)) {
      wm.committed += 1;
    } else {
      wm.aborted += 1;
    }
    wm.txn_latency.record_nanos(common::now_nanos() - batch_start_nanos_);
  };

  for (const auto& [txn_idx, mp_idx] : lists_[worker]) {
    txn::txn_desc& t = b.at(txn_idx);
    if (mp_idx < 0) {
      execute(t);  // single-partition: serial, lock-free, the happy path
      continue;
    }
    // Multi-partition: partition-level rendezvous. Everyone stalls until
    // the home partition has run the transaction and charged the 2PC cost.
    mp_state& st = *mp_states_[static_cast<std::size_t>(mp_idx)];
    st.arrived.fetch_add(1, std::memory_order_acq_rel);
    common::backoff bo;
    if (worker == st.home) {
      while (st.arrived.load(std::memory_order_acquire) < st.participants) {
        bo.spin();
      }
      execute(t);
      common::spin_for_micros(cfg_.hstore_coord_micros);
      st.done.store(true, std::memory_order_release);
    } else {
      while (!st.done.load(std::memory_order_acquire)) bo.spin();
    }
  }
}

}  // namespace quecc::proto
