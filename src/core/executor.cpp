// Executor: drains queues keeping FIFO per conflict key, parking entries
// whose data or commit dependencies are not ready (see executor.hpp), plus
// the frag_host row accessors fragment logic runs against.
#include "core/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/spinlock.hpp"
#include "obs/metrics.hpp"
#include "storage/prefetch.hpp"

namespace quecc::core {

void executor::run_conflict_queues(
    std::span<const frag_queue* const> queues) {
  reading_committed_ = false;
  for (const frag_queue* q : queues) run_queue(*q);
  drain_parked();
  flush_counts();
}

void executor::run_read_queues(std::span<const frag_queue* const> queues,
                               std::atomic<std::size_t>& cursor) {
  reading_committed_ = true;
  // Parked entries span claimed queues: an entry waiting on a producer in a
  // queue nobody has claimed yet must not stop this executor from claiming
  // it.
  while (true) {
    // relaxed: work-claiming cursor; queue contents were published by the
    // plan->exec stage hand-off, claiming needs atomicity only.
    const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= queues.size()) break;
    run_queue(*queues[i]);
  }
  drain_parked();
  flush_counts();
  reading_committed_ = false;
}

void executor::run_queue(const frag_queue& q) {
  const std::span<const frag_entry> es = q.entries();
  const std::size_t n = es.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kClockEvery == 0) clock_ = common::now_nanos();
    if (i + kDescAhead < n) {
      // Fetched for writing: see the Lookahead paragraph in executor.hpp.
      const frag_entry& ahead = es[i + kDescAhead];
      storage::prefetch_object(*ahead.f);
      storage::prefetch_object(*ahead.t, /*for_write=*/true);
    }
    if (i + kBucketAhead < n) prefetch_slot_and_bucket(es[i + kBucketAhead]);
    admit(es[i]);
  }
}

void executor::prefetch_slot_and_bucket(const frag_entry& e) const noexcept {
  const txn::fragment& f = *e.f;
  if (f.output_slot != txn::kNoSlot) {
    storage::prefetch_object(e.t->slot(f.output_slot), /*for_write=*/true);
  }
  if (f.rid != storage::kNoRow || f.kind == txn::op_kind::scan) return;
  db_.at(f.table).prefetch_key(f.key, f.part);
}

void executor::admit(const frag_entry& e) {
  if (heads_.empty()) {
    // Nothing is parked, so nothing holds this entry's key.
    if (const wait_reason why = try_run(e); why != wait_reason::none) {
      park(e, why);
    }
    return;
  }
  // Read queues read the committed image, which no entry of this batch
  // writes, so only conflict queues keep per-key order.
  const std::uint32_t tail =
      reading_committed_ ? kNone : tail_[bucket(e.key)];
  if (tail != kNone) {
    // An earlier entry of this key is parked: queue behind it.
    const auto at = static_cast<std::uint32_t>(parked_.size());
    parked_.push_back({e, kNone, wait_reason::key});
    parked_[tail].next = at;
    tail_[bucket(e.key)] = at;
    ++parked_total_;
  } else if (const wait_reason why = try_run(e); why != wait_reason::none) {
    park(e, why);
  }
  if (++since_retry_ >= kRetryEvery) retry_parked();
}

void executor::park(const frag_entry& e, wait_reason why) {
  const auto at = static_cast<std::uint32_t>(parked_.size());
  parked_.push_back({e, kNone, why});
  heads_.push_back(at);
  if (!reading_committed_) tail_[bucket(e.key)] = at;
  ++parked_total_;
}

executor::wait_reason executor::try_run(const frag_entry& e) {
  txn::txn_desc& t = *e.t;
  const txn::fragment& f = *e.f;

  // An aborted transaction's producers may never produce, so the abort
  // check comes before the dependency checks.
  if (t.aborted()) {
    skip(e);
    return wait_reason::none;
  }
  // Data dependencies: producer fragments (any executor) must have
  // published the slots this fragment consumes.
  if (f.input_mask != 0 && !t.inputs_ready(f.input_mask)) {
    return wait_reason::data;
  }
  // Commit dependencies (conservative execution only): database-updating
  // fragments hold off until every abortable fragment of the transaction
  // has resolved, so uncommitted updates are never exposed (paper §3.2).
  if (cfg_.execution == common::exec_model::conservative &&
      f.updates_database()) {
    if (t.pending_abortables.load(std::memory_order_acquire) != 0) {
      return wait_reason::commit;
    }
    if (t.aborted()) {  // abort decided by the final abortable fragment
      skip(e);
      return wait_reason::none;
    }
  }

  current_part_ = e.part;
  const txn::frag_status st = t.proc->run_fragment(f, t, *this);
  // Publish the abort decision BEFORE resolving the commit dependency:
  // conservative executors observe pending_abortables with acquire
  // ordering, so the release sequence on the counter makes the status
  // store visible to them — decrementing first would open a window where
  // an executor sees zero pending abortables but not the abort, and
  // applies a doomed update.
  if (st == txn::frag_status::abort) t.mark_aborted();
  if (f.abortable) {
    t.pending_abortables.fetch_sub(1, std::memory_order_acq_rel);
  }
  ++applied_;
  finish(t);
  return wait_reason::none;
}

bool executor::retry_parked() {
  since_retry_ = 0;
  clock_ = common::now_nanos();
  bool progress = false;
  std::size_t kept = 0;
  for (std::uint32_t h : heads_) {
    // Run the key's parked entries in queue order until one must wait.
    while (true) {
      parked_entry& p = parked_[h];
      p.why = try_run(p.e);
      if (p.why != wait_reason::none) {
        heads_[kept++] = h;
        break;
      }
      progress = true;
      if (p.next == kNone) {
        if (!reading_committed_) tail_[bucket(p.e.key)] = kNone;
        break;
      }
      h = p.next;
    }
  }
  heads_.resize(kept);
  if (heads_.empty()) parked_.clear();
  return progress;
}

void executor::drain_parked() {
  // Liveness, by induction on replay order (planner, seq, fragment idx),
  // which is sequence order: the earliest unfinished entry of the batch can
  // always run. Its inputs come from smaller fragment idx of its own
  // transaction (txn::validate_plan), its transaction's abortable fragments
  // precede every update (validate_plan again), and every entry that holds
  // its key sits earlier in its queue — all earlier in replay order, so all
  // finished. That entry heads its key's parked entries or is not yet
  // taken from a queue, and no executor stops taking entries or
  // retrying its parked ones, so it runs; then the next one does. The
  // argument runs over the conflict queues first, then the read queues:
  // conflict-queue entries never wait on read-queue ones
  // (core::writer_needed_slots), and every executor claims read queues
  // until none are left before it drains its parked entries.
  //
  // Only here, with nothing runnable, does the executor wait. The wait is
  // booked by why the oldest parked entry waits (it is never key-blocked:
  // nothing precedes it, so it heads its key), reading the clock only once
  // a wait starts.
  while (!heads_.empty()) {
    if (retry_parked()) continue;
    static const obs::counter data_wait("engine.exec_data_wait_nanos");
    static const obs::counter commit_wait("engine.exec_commit_wait_nanos");
    const auto oldest = std::min_element(heads_.begin(), heads_.end());
    const bool commit = parked_[*oldest].why == wait_reason::commit;
    const std::uint64_t w0 = common::now_nanos();
    common::backoff bo;
    do {
      bo.spin();
    } while (!retry_parked());
    (commit ? commit_wait : data_wait).inc(common::now_nanos() - w0);
  }
}

void executor::flush_counts() {
  static const obs::counter applied("engine.exec_frags_applied_total");
  static const obs::counter skipped("engine.exec_frags_skipped_total");
  static const obs::counter parked("engine.exec_parked_total");
  applied.inc(applied_);
  skipped.inc(skipped_);
  parked.inc(parked_total_);
  applied_ = skipped_ = parked_total_ = 0;
}

void executor::skip(const frag_entry& e) {
  if (e.f->abortable) {
    e.t->pending_abortables.fetch_sub(1, std::memory_order_acq_rel);
  }
  ++skipped_;
  finish(*e.t);
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
  if (log_speculation_) logs_.reads.push_back({t.seq, f.table, f.key});
  return db_.at(f.table).row(rid);
}

std::span<std::byte> executor::update_row(const txn::fragment& f,
                                          txn::txn_desc& t) {
  const auto rid = resolve(f);
  if (rid == storage::kNoRow) return {};
  const auto row = db_.at(f.table).row(rid);
  // Without speculation logging the entry keeps no before-image: nothing
  // will roll it back, it only feeds the read-committed publish list.
  if (log_writes_) {
    logs_.undo.add(t.seq, f.table, f.key, rid, txn::op_kind::update,
                   log_speculation_ ? row : std::span<std::byte>());
  }
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
  if (log_writes_) {
    logs_.undo.add(t.seq, f.table, f.key, rid, txn::op_kind::insert);
  }
  return row;
}

bool executor::erase_row(const txn::fragment& f, txn::txn_desc& t) {
  const auto rid = resolve(f);
  if (rid == storage::kNoRow) return false;
  if (!db_.at(f.table).erase(f.key, f.part)) return false;
  // The RC publish skips erased rows: only recovery reads this entry.
  if (log_speculation_) {
    logs_.undo.add(t.seq, f.table, f.key, rid, txn::op_kind::erase);
  }
  return true;
}

bool executor::scan_rows(const txn::fragment& f, txn::txn_desc& t,
                         scan_row_fn fn, void* ctx) {
  // One range read entry covers every row the scan saw — and every row it
  // did NOT see: speculation recovery taints this transaction when an
  // affected writer touched *any* key in [key, key_hi), which is exactly
  // the phantom protection a per-row read log could not give.
  if (!reading_committed_ && log_speculation_) {
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
