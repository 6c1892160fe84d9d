#include "core/planner.hpp"

#include <algorithm>
#include <stdexcept>

namespace quecc::core {

namespace {

/// The frag_host of plan-time abort checks: reads of replicated tables and
/// nothing else. A check reaching any other access is a workload bug.
class plan_host final : public txn::frag_host {
 public:
  explicit plan_host(const storage::database& db) : db_(db) {}

  std::span<const std::byte> read_row(const txn::fragment& f,
                                      txn::txn_desc&) override {
    const storage::table& tab = db_.at(f.table);
    if (!tab.replicated()) refuse();
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    return tab.row(rid);
  }
  std::span<std::byte> update_row(const txn::fragment&,
                                  txn::txn_desc&) override {
    refuse();
  }
  std::span<std::byte> insert_row(const txn::fragment&,
                                  txn::txn_desc&) override {
    refuse();
  }
  bool erase_row(const txn::fragment&, txn::txn_desc&) override { refuse(); }

 private:
  [[noreturn]] static void refuse() {
    throw std::logic_error(
        "plan-time abort checks may only read replicated tables");
  }

  const storage::database& db_;
};

}  // namespace

void plan_output::resize(worker_id_t executors, bool with_read_queues) {
  conflict.resize(executors);
  reads.resize(with_read_queues ? executors : 0);
}

void plan_output::clear() {
  for (auto& q : conflict) q.clear();
  for (auto& q : reads) q.clear();
  planned_frags = 0;
  runtime_abortables = 0;
}

bool goes_to_read_queue(const txn::fragment& f,
                        std::uint64_t writer_needed) noexcept {
  // Paper Section 3.2, "Isolation Levels": pure reads are planned into
  // dedicated read queues served from committed versions by any executor.
  if (f.kind != txn::op_kind::read || f.abortable) return false;
  return f.output_slot == txn::kNoSlot ||
         ((writer_needed >> f.output_slot) & 1) == 0;
}

worker_id_t planner::route(const txn::fragment& f, part_id_t part,
                           std::uint32_t& key) const noexcept {
  // Node placement follows the record's home partition (data really lives
  // somewhere); *within* a node, queues are split by a per-record hash so
  // that even a single hot partition (1-warehouse TPC-C) spreads across
  // every executor — the intra-transaction parallelism the paper contrasts
  // with thread-to-transaction designs (Section 5). Same record => same
  // partition => same node, and same key hash => same executor: conflict
  // dependencies still collapse into one FIFO queue.
  //
  // Tables on an ordered index hash by (table, partition) instead: a range
  // conflicts with every key inside it, so a scan and the point writes it
  // could observe must collapse into the *same* FIFO — per-key spreading
  // would order them by executor timing, not queue position. Point-only
  // workloads on ordered tables keep identical results (all ops on a key
  // still share one queue); they just trade intra-partition spread for
  // range-conflict determinism.
  //
  // The same hash is the entry's conflict key (frag_queue.hpp): executors
  // keep queue order among entries that share it. Its high half is stored
  // because the low bits also pick the executor, so they barely vary
  // within one queue.
  const auto executors = cfg_.executor_threads;
  const auto e_per_node = static_cast<worker_id_t>(executors / cfg_.nodes);
  const auto node =
      static_cast<worker_id_t>((part % executors) / e_per_node);
  const bool ordered =
      db_.at(f.table).index() == storage::index_kind::ordered;
  const std::uint64_t h =
      ordered ? record_hash(f.table, part) : record_hash(f.table, f.key);
  key = static_cast<std::uint32_t>(h >> 32);
  return static_cast<worker_id_t>(node * e_per_node + h % e_per_node);
}

bool planner::decided_at_plan(const txn::fragment& f) const noexcept {
  return f.abortable && f.kind == txn::op_kind::read && f.input_mask == 0 &&
         db_.at(f.table).replicated();
}

bool planner::run_plan_checks(txn::txn_desc& t, txn::frag_host& h) const {
  std::uint32_t resolved = 0;
  for (const auto& f : t.frags) {
    if (!decided_at_plan(f)) continue;
    if (t.proc->run_fragment(f, t, h) == txn::frag_status::abort) {
      t.mark_aborted_at_plan();
      return false;
    }
    ++resolved;
  }
  if (resolved != 0) {
    // relaxed: pre-execution mutation, published by the stage hand-off.
    t.pending_abortables.fetch_sub(resolved, std::memory_order_relaxed);
  }
  return true;
}

std::uint64_t writer_needed_slots(const txn::txn_desc& t) noexcept {
  std::uint64_t needed = 0;
  for (auto it = t.frags.rbegin(); it != t.frags.rend(); ++it) {
    // Scans never qualify for the read queues (goes_to_read_queue requires
    // kind == read), so like updates they pin their inputs to the conflict
    // queues — an executor draining conflict queues must never wait on a
    // slot produced from an unclaimed read queue.
    const bool pinned_to_conflict =
        it->updates_database() || it->kind == txn::op_kind::scan ||
        it->abortable ||
        (it->output_slot != txn::kNoSlot &&
         ((needed >> it->output_slot) & 1) != 0);
    if (pinned_to_conflict) needed |= it->input_mask;
  }
  return needed;
}

void planner::plan(txn::batch& b, plan_output& out) {
  out.resize(cfg_.executor_threads,
             cfg_.iso == common::isolation::read_committed);
  out.clear();

  // Contiguous slicing: see pipeline::build for why replay order is seq
  // order. Round-robin slicing would still be deterministic but would make
  // the equivalent serial order a permutation of seq order, needlessly
  // complicating reasoning and tests.
  const auto planners = static_cast<std::size_t>(cfg_.planner_threads);
  const std::size_t chunk = (b.size() + planners - 1) / planners;
  const std::size_t begin = std::min<std::size_t>(id_ * chunk, b.size());
  const std::size_t end = std::min(begin + chunk, b.size());
  const bool rc = cfg_.iso == common::isolation::read_committed;
  // Planning resolves the primary index of replicated tables only: it may
  // overlap the previous batch's execution, which mutates every other
  // index through inserts/erases, so their rids resolve at execution time
  // (executor::resolve, and batch_slot::resolve_read_queues for RC read
  // queues). Execution is serialized across batches, so those lookups
  // return the same rids at every pipeline depth, and planning reads no
  // state that execution writes.
  plan_host host(db_);
  for (std::size_t i = begin; i < end; ++i) {
    txn::txn_desc& t = b.at(i);
    if (!run_plan_checks(t, host)) continue;  // aborted: plans nothing
    // relaxed: written before submission or by run_plan_checks on this
    // thread.
    if (t.pending_abortables.load(std::memory_order_relaxed) != 0) {
      ++out.runtime_abortables;
    }
    const std::uint64_t writer_needed = rc ? writer_needed_slots(t) : 0;
    for (auto& f : t.frags) {
      if (decided_at_plan(f)) continue;  // resolved by run_plan_checks
      // Cross-partition scans fan out into one conflict-queue entry per
      // partition (the fragment's partition is the kAllParts sentinel; the
      // entry carries the effective one). The producing slot is armed with
      // the split count — safe to mutate here even under pipelining,
      // because execution is serialized across batches: no executor
      // touches this batch until every planner finished it.
      if (f.kind == txn::op_kind::scan && f.part == txn::kAllParts) {
        const auto parts = static_cast<part_id_t>(cfg_.partitions);
        if (f.output_slot != txn::kNoSlot) t.arm_slot(f.output_slot, parts);
        for (part_id_t p = 0; p < parts; ++p) {
          std::uint32_t key;
          const auto e = route(f, p, key);
          out.conflict[e].push({&t, &f, p, key});
          ++out.planned_frags;
        }
        continue;
      }
      std::uint32_t key;
      const auto e = route(f, f.part, key);
      if (rc && goes_to_read_queue(f, writer_needed)) {
        out.reads[e].push({&t, &f, f.part, key});
      } else {
        out.conflict[e].push({&t, &f, f.part, key});
      }
      ++out.planned_frags;
    }
  }
}

}  // namespace quecc::core
