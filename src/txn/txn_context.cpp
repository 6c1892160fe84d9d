#include "txn/txn_context.hpp"

#include <stdexcept>

#include "txn/procedure.hpp"

namespace quecc::txn {

void txn_desc::reset_runtime() {
  // relaxed (all stores below): reset runs before the batch is handed to
  // workers; the release fence at the end + the engine's stage hand-off
  // publish the whole reset at once.
  status.store(txn_status::active, std::memory_order_relaxed);
  aborted_at_plan_ = false;
  std::uint32_t abortables = 0;
  for (const auto& f : frags) {
    if (f.abortable) {
      if (f.updates_database()) {
        // Abortable fragments must be read-only: the conservative
        // executor holds an update until pending_abortables reaches zero,
        // which an abortable update would wait on itself to do.
        throw std::logic_error(
            "abortable fragments must not update the database");
      }
      ++abortables;
    }
  }
  // relaxed: see above.
  pending_abortables.store(abortables, std::memory_order_relaxed);
  for (auto& s : slots_) {
    s.value.store(0, std::memory_order_relaxed);  // relaxed: see above
    s.ready.store(0, std::memory_order_relaxed);
    // Disarm split-producer slots: serial re-execution (spec recovery,
    // baselines) produces whole values, not per-partition partials.
    s.parts.store(0, std::memory_order_relaxed);  // relaxed: see above
  }
  std::atomic_thread_fence(std::memory_order_release);
}

void txn_desc::resize_slots(std::size_t n) {
  if (n > kMaxSlots) throw std::length_error("txn uses more than 64 slots");
  // value_slot holds atomics (non-movable); size once before execution.
  if (slots_.size() < n) {
    std::vector<value_slot> bigger(n);
    slots_.swap(bigger);
  }
}

bool txn_desc::inputs_ready(std::uint64_t mask) const noexcept {
  while (mask != 0) {
    const auto slot = static_cast<std::size_t>(__builtin_ctzll(mask));
    if (!slots_[slot].ready.load(std::memory_order_acquire)) return false;
    mask &= mask - 1;
  }
  return true;
}

std::vector<std::uint64_t> txn_desc::result_fingerprint() const {
  std::vector<std::uint64_t> fp;
  const auto st = status.load(std::memory_order_acquire);
  fp.push_back(static_cast<std::uint64_t>(st));
  // Aborted transactions return no results to the client: whatever slots
  // were produced before the abort landed are timing-dependent partial
  // reads, not part of the deterministic outcome.
  if (st == txn_status::aborted) return fp;
  fp.reserve(slots_.size() + 1);
  for (const auto& s : slots_) {
    fp.push_back(s.value.load(std::memory_order_acquire));
  }
  return fp;
}

}  // namespace quecc::txn
