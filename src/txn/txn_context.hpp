// Transaction descriptor: the static plan (fragments, args) plus the shared
// runtime context threads coordinate through.
//
// The runtime part is the paper's "shared lock-free and thread-safe
// distributed data structure" for dependency information (Section 3.2):
// value slots with atomic ready flags resolve data dependencies, the
// pending-abortables counter resolves commit dependencies, and the status
// carries the abort decision — no locks, no condition variables, just
// atomics that executors check before running a fragment, parking it while
// they say wait (core/executor.hpp). Nothing else here is written during
// execution: no executor counts a transaction's finished fragments. Each
// executor stamps the fragments it finishes into an array of its own, and
// the epilogue derives the transaction's latency from those stamps
// (core/stage_driver.hpp, batch_slot::stamps).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "txn/fragment.hpp"

namespace quecc::txn {

class procedure;  // see txn/procedure.hpp

enum class txn_status : std::uint8_t {
  active,
  committed,
  aborted,  ///< deterministic logic abort
};

/// One data-dependency value slot. Producers store the value then set
/// ready with release ordering; consumers acquire-load ready before the
/// value, so the value read is always the produced one.
///
/// `parts` supports split producers (a cross-partition scan fragment the
/// planner fanned out into one entry per partition): the planner arms the
/// slot with the split count, each entry's logic contributes a partial via
/// produce_partial, and the last contribution publishes ready. Unarmed
/// slots (parts == 0, the overwhelmingly common case) behave exactly as
/// before.
///
/// Slots are packed, not padded to a cache line: padding them to 64 bytes
/// was measured on ycsb-hot and gave no throughput, while peak RSS rose by
/// about 10%.
struct value_slot {
  std::atomic<std::uint64_t> value{0};
  std::atomic<std::uint8_t> ready{0};
  std::atomic<std::uint16_t> parts{0};  ///< outstanding split contributions
};

class txn_desc {
 public:
  txn_desc() = default;
  txn_desc(const txn_desc&) = delete;
  txn_desc& operator=(const txn_desc&) = delete;

  // --- static plan (filled by the workload generator) ---------------------
  txn_id_t id = 0;
  seq_t seq = 0;                   ///< batch position = serial order
  const procedure* proc = nullptr;
  std::vector<fragment> frags;
  std::vector<std::uint64_t> args;  ///< procedure parameters

  // --- runtime context -----------------------------------------------------
  std::atomic<txn_status> status{txn_status::active};
  std::atomic<std::uint32_t> pending_abortables{0};

  /// Prepare runtime state for (re-)execution of the same plan. Counts
  /// abortable fragments and resets slots/status.
  void reset_runtime();

  bool aborted() const noexcept {
    return status.load(std::memory_order_acquire) == txn_status::aborted;
  }

  /// Deterministic logic abort: first caller wins; idempotent.
  void mark_aborted() noexcept {
    status.store(txn_status::aborted, std::memory_order_release);
  }

  /// Logic abort decided while planning (core::planner): no fragment of the
  /// transaction was queued, so it ran nothing and dirtied nothing, and
  /// speculative recovery does not seed its taint closure with it.
  void mark_aborted_at_plan() noexcept {
    aborted_at_plan_ = true;
    mark_aborted();
  }
  bool aborted_at_plan() const noexcept { return aborted_at_plan_; }

  // --- value slots (data dependencies) ------------------------------------
  std::size_t slot_count() const noexcept { return slots_.size(); }
  void resize_slots(std::size_t n);

  /// Producer side: publish `v` into `slot`.
  void produce(std::uint16_t slot, std::uint64_t v) noexcept {
    // relaxed: the release store of ready below publishes the value.
    slots_[slot].value.store(v, std::memory_order_relaxed);
    slots_[slot].ready.store(1, std::memory_order_release);
  }

  /// Planner side: declare `slot` a split producer with `parts` partial
  /// contributions (cross-partition scan fan-out). Runs before the batch's
  /// execution phase starts; the stage hand-off publishes it.
  void arm_slot(std::uint16_t slot, std::uint16_t parts) noexcept {
    // relaxed: pre-execution, published by the plan->exec hand-off.
    slots_[slot].parts.store(parts, std::memory_order_relaxed);
  }

  /// Producer side for possibly-split slots. Unarmed: plain produce (the
  /// value may be any 64-bit pattern, e.g. a bit-cast double). Armed with
  /// P parts: the P contributions are summed as u64 — split producers must
  /// emit integer-summable partials — and the last one publishes ready.
  void produce_partial(std::uint16_t slot, std::uint64_t v) noexcept {
    auto& s = slots_[slot];
    // acquire: pairs with the planner's hand-off publish; each of the P
    // split entries decrements exactly once, so a nonzero load here can
    // never be a stale zero race (unarmed slots are never decremented).
    if (s.parts.load(std::memory_order_acquire) == 0) {
      produce(slot, v);
      return;
    }
    // relaxed: the final contributor's release store of ready publishes
    // the accumulated value (the fetch_sub chain orders the additions).
    s.value.fetch_add(v, std::memory_order_relaxed);
    if (s.parts.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      s.ready.store(1, std::memory_order_release);
    }
  }

  /// Consumer side: true when every slot in `mask` is ready.
  bool inputs_ready(std::uint64_t mask) const noexcept;

  /// Consumer side: read a slot's value (caller checked readiness).
  std::uint64_t slot_value(std::uint16_t slot) const noexcept {
    return slots_[slot].value.load(std::memory_order_acquire);
  }

  /// A slot itself, for prefetching it ahead of a produce or a readiness
  /// check (core/executor.hpp); read and write it through the members
  /// above.
  const value_slot& slot(std::uint16_t s) const noexcept { return slots_[s]; }

  /// Snapshot of slot values + status for result-determinism comparisons.
  std::vector<std::uint64_t> result_fingerprint() const;

 private:
  std::vector<value_slot> slots_;
  /// Plain field: the planner writes it before the plan->exec hand-off and
  /// the epilogue reads it after, so the stage hand-offs order the two.
  bool aborted_at_plan_ = false;
};

}  // namespace quecc::txn
