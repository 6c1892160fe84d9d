#include "protocols/nd_base.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>

#include "txn/procedure.hpp"

namespace quecc::proto {

namespace {

/// The one copy loop behind seqlock_load/seqlock_store: `row` is the
/// shared side (atomic_ref accesses), `buf` the private one.
template <bool kStore>
void seqlock_copy(std::byte* row, std::byte* buf, std::size_t n) noexcept {
  // relaxed: the caller's version word orders the copy (acquire/release
  // around it); these accesses only have to be atomic, not ordered.
  constexpr auto relaxed = std::memory_order_relaxed;
  const auto copy_byte = [&](std::size_t i) {
    std::atomic_ref<std::byte> shared(row[i]);
    if constexpr (kStore) {
      shared.store(buf[i], relaxed);
    } else {
      buf[i] = shared.load(relaxed);
    }
  };
  const auto misalign = reinterpret_cast<std::uintptr_t>(row) % 8;
  std::size_t i = 0;
  for (const std::size_t head = std::min(n, (8 - misalign) % 8); i < head;
       ++i) {
    copy_byte(i);
  }
  for (; i + 8 <= n; i += 8) {
    std::atomic_ref<std::uint64_t> shared(
        *reinterpret_cast<std::uint64_t*>(row + i));
    std::uint64_t word;
    if constexpr (kStore) {
      std::memcpy(&word, buf + i, 8);
      shared.store(word, relaxed);
    } else {
      word = shared.load(relaxed);
      std::memcpy(buf + i, &word, 8);
    }
  }
  for (; i < n; ++i) copy_byte(i);
}

}  // namespace

void seqlock_load(std::span<std::byte> out,
                  std::span<const std::byte> row) noexcept {
  // const_cast: a load-only atomic_ref still needs a non-const referent.
  seqlock_copy<false>(const_cast<std::byte*>(row.data()), out.data(),
                      row.size());
}

void seqlock_store(std::span<std::byte> row,
                   std::span<const std::byte> in) noexcept {
  seqlock_copy<true>(row.data(), const_cast<std::byte*>(in.data()),
                     row.size());
}

nd_engine_base::nd_engine_base(storage::database& db,
                               const common::config& cfg,
                               const char* display_name)
    : db_(db), cfg_(cfg), display_name_(display_name) {
  cfg_.validate();
}

void nd_engine_base::ensure_pool() {
  if (pool_) return;
  // Deferred so that make_worker (a virtual) is never called during the
  // base constructor.
  const unsigned n = cfg_.worker_threads;
  workers_.reserve(n);
  for (unsigned w = 0; w < n; ++w) workers_.push_back(make_worker(w));
  worker_metrics_.resize(n);
  pool_ = std::make_unique<common::batch_pool>(
      n, [this](unsigned w) { worker_job(w); }, display_name_,
      cfg_.pin_threads);
}

void nd_engine_base::run_batch(txn::batch& b, common::run_metrics& m) {
  ensure_pool();
  common::stopwatch sw;
  current_ = &b;
  // relaxed: reset before run_round() releases the workers (the pool's
  // round barrier is the publication edge).
  cursor_.store(0, std::memory_order_relaxed);
  {
    // Workers are quiescent between rounds, but reset under the lock
    // anyway: the guarded-access contract stays unconditional.
    common::spin_guard guard(order_lock_);
    commit_order_.clear();
    commit_order_.reserve(b.size());
  }
  for (auto& wm : worker_metrics_) wm = common::run_metrics{};

  pool_->run_round();

  for (auto& wm : worker_metrics_) m.merge_txn_outcomes(wm);
  m.batches += 1;
  m.elapsed_seconds += sw.seconds();
}

void nd_engine_base::worker_job(unsigned w) {
  worker_ctx& ctx = *workers_[w];
  common::run_metrics& wm = worker_metrics_[w];
  txn::batch& b = *current_;

  while (true) {
    // relaxed: work-stealing cursor; claiming an index needs atomicity
    // only — batch contents were published by the round barrier.
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.size()) break;
    txn::txn_desc& t = b.at(i);

    common::stopwatch txn_sw;
    common::backoff bo;
    while (true) {  // retry loop: cc aborts restart, logic aborts are final
      t.reset_runtime();
      ctx.begin(t);

      bool logic_abort = false;
      for (const auto& f : t.frags) {
        // Thread-to-transaction execution: fragments run in idx order in
        // this thread, so data dependencies are trivially satisfied.
        const auto st = t.proc->run_fragment(f, t, ctx.host());
        if (f.abortable) {
          // relaxed: single-thread execution here; the counter only feeds
          // this protocol family's own bookkeeping.
          t.pending_abortables.fetch_sub(1, std::memory_order_relaxed);
        }
        if (ctx.cc_failed()) break;
        if (st == txn::frag_status::abort) {
          logic_abort = true;
          break;
        }
      }

      if (ctx.cc_failed()) {
        ctx.abort_attempt(t);
        wm.cc_aborts += 1;
        bo.spin();
        continue;
      }
      if (logic_abort) {
        t.mark_aborted();  // final status first: abort_attempt may read it
        ctx.abort_attempt(t);
        wm.aborted += 1;
        break;
      }
      const auto record_order = [this, &t] {
        common::spin_guard guard(order_lock_);
        commit_order_.push_back(t.seq);
      };
      if (!ctx.try_commit(t, record_order)) {
        ctx.abort_attempt(t);
        wm.cc_aborts += 1;
        bo.spin();
        continue;
      }
      t.status.store(txn::txn_status::committed, std::memory_order_release);
      wm.committed += 1;
      break;
    }
    wm.txn_latency.record_nanos(txn_sw.nanos());
  }
}

}  // namespace quecc::proto
