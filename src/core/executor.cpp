#include "core/executor.hpp"

#include <chrono>
#include <cstring>
#include <utility>

#include "common/spinlock.hpp"
#include "obs/metrics.hpp"

namespace quecc::core {


void executor::run_conflict_queues(
    std::span<const frag_queue* const> queues) {
  reading_committed_ = false;
  for (const frag_queue* q : queues) {
    for (const frag_entry& e : *q) process(e);
  }
}

void executor::run_read_queues(std::span<const frag_queue* const> queues,
                               std::atomic<std::size_t>& cursor) {
  reading_committed_ = true;
  while (true) {
    // relaxed: work-claiming cursor; queue contents were published by the
    // plan->exec stage hand-off, claiming needs atomicity only.
    const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= queues.size()) break;
    for (const frag_entry& e : *queues[i]) process(e);
  }
  reading_committed_ = false;
}

void executor::process(const frag_entry& e) {
  txn::txn_desc& t = *e.t;
  const txn::fragment& f = *e.f;
  current_part_ = e.part;

  if (t.aborted()) {
    skip(e);
    return;
  }

  // Data dependencies: wait for producer fragments (other executors) to
  // publish the slots this fragment consumes. Deadlock-free because
  // producers sort strictly earlier in the global replay order (inputs
  // come from smaller fragment idx, txn::validate_plan; planners keep
  // replay order, planner.hpp) — unless the txn aborts, which breaks the
  // wait.
  //
  // Both waits time themselves into a counter, reading the clock only once
  // a wait has started, so the no-wait path reads no clock.
  if (f.input_mask != 0 && !t.inputs_ready(f.input_mask)) {
    static const obs::counter data_wait("engine.exec_data_wait_nanos");
    const std::uint64_t w0 = common::now_nanos();
    common::backoff bo;
    do {
      if (t.aborted()) break;
      bo.spin();
    } while (!t.inputs_ready(f.input_mask));
    data_wait.inc(common::now_nanos() - w0);
    if (t.aborted()) {
      skip(e);
      return;
    }
  }

  // Commit dependencies (conservative execution only): database-updating
  // fragments hold off until every abortable fragment of the transaction
  // has resolved, so uncommitted updates are never exposed (paper §3.2).
  if (cfg_.execution == common::exec_model::conservative &&
      f.updates_database()) {
    if (t.pending_abortables.load(std::memory_order_acquire) != 0) {
      static const obs::counter commit_wait("engine.exec_commit_wait_nanos");
      const std::uint64_t w0 = common::now_nanos();
      common::backoff bo;
      while (t.pending_abortables.load(std::memory_order_acquire) != 0 &&
             !t.aborted()) {
        bo.spin();
      }
      commit_wait.inc(common::now_nanos() - w0);
    }
    if (t.aborted()) {  // abort decided by the final abortable fragment
      skip(e);
      return;
    }
  }

  const txn::frag_status st = t.proc->run_fragment(f, t, *this);
  // Publish the abort decision BEFORE resolving the commit dependency:
  // conservative waiters observe pending_abortables with acquire ordering,
  // so the release sequence on the counter makes the status store visible
  // to them — decrementing first would open a window where a waiter sees
  // zero pending abortables but not the abort, and applies a doomed update.
  if (st == txn::frag_status::abort) t.mark_aborted();
  if (f.abortable) {
    t.pending_abortables.fetch_sub(1, std::memory_order_acq_rel);
  }
  finish(t);
}

void executor::skip(const frag_entry& e) {
  if (e.f->abortable) {
    e.t->pending_abortables.fetch_sub(1, std::memory_order_acq_rel);
  }
  finish(*e.t);
}

void executor::finish(txn::txn_desc& t) {
  const auto left =
      t.remaining_frags.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (left == 0) {
    latency_.record_nanos(common::now_nanos() - batch_start_nanos_);
  }
}

storage::row_id_t executor::resolve(const txn::fragment& f) const noexcept {
  if (f.rid != storage::kNoRow) return f.rid;
  // Partition-local path: route to the fragment's home arena, no index
  // lock (hash_index lock-free reader contract).
  return db_.at(f.table).lookup(f.key, f.part);
}

std::span<const std::byte> executor::read_row(const txn::fragment& f,
                                              txn::txn_desc& t) {
  const auto rid = resolve(f);
  if (rid == storage::kNoRow) return {};
  if (reading_committed_) {
    // Read-committed read queues observe the previous batch's committed
    // image; no read logging needed (immune to in-batch aborts).
    return committed_->committed_row(f.table, rid);
  }
  if (cfg_.execution == common::exec_model::speculative) {
    logs_.reads.push_back({t.seq, f.table, f.key});
  }
  return db_.at(f.table).row(rid);
}

std::span<std::byte> executor::update_row(const txn::fragment& f,
                                          txn::txn_desc& t) {
  const auto rid = resolve(f);
  if (rid == storage::kNoRow) return {};
  const auto row = db_.at(f.table).row(rid);
  // Conservative mode keeps the entry without a before-image: aborted
  // transactions never reach update_row, so the entry only feeds the
  // read-committed publish list.
  const bool keep_image = cfg_.execution == common::exec_model::speculative;
  logs_.undo.add(t.seq, f.table, f.key, rid, txn::op_kind::update,
                 keep_image ? row : std::span<std::byte>());
  return row;
}

std::span<std::byte> executor::insert_row(const txn::fragment& f,
                                          txn::txn_desc& t) {
  auto& table = db_.at(f.table);
  const auto rid = table.allocate_row(f.part);
  auto row = table.row(rid);
  std::memset(row.data(), 0, row.size());
  if (!table.index_row(f.key, rid)) {
    table.retire_unindexed(rid);  // duplicate key: recycle the slot
    return {};
  }
  logs_.undo.add(t.seq, f.table, f.key, rid, txn::op_kind::insert);
  return row;
}

bool executor::erase_row(const txn::fragment& f, txn::txn_desc& t) {
  const auto rid = resolve(f);
  if (rid == storage::kNoRow) return false;
  if (!db_.at(f.table).erase(f.key, f.part)) return false;
  logs_.undo.add(t.seq, f.table, f.key, rid, txn::op_kind::erase);
  return true;
}

bool executor::scan_rows(const txn::fragment& f, txn::txn_desc& t,
                         scan_row_fn fn, void* ctx) {
  // One range read entry covers every row the scan saw — and every row it
  // did NOT see: speculation recovery taints this transaction when an
  // affected writer touched *any* key in [key, key_hi), which is exactly
  // the phantom protection a per-row read log could not give.
  if (!reading_committed_ &&
      cfg_.execution == common::exec_model::speculative) {
    logs_.reads.push_back({t.seq, f.table, f.key, f.key_hi});
  }
  struct tramp_ctx {
    storage::table* tab;
    scan_row_fn fn;
    void* ctx;
  } tc{&db_.at(f.table), fn, ctx};
  return tc.tab->visit_range_in(
      current_part_, f.key, f.key_hi,
      [](void* raw, key_t k, storage::row_id_t rid) {
        auto* c = static_cast<tramp_ctx*>(raw);
        return c->fn(c->ctx, k,
                     std::as_const(*c->tab).row(rid));
      },
      &tc);
}

}  // namespace quecc::core
