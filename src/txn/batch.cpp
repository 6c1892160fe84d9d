#include "txn/batch.hpp"

#include <stdexcept>
#include <string>

#include "txn/procedure.hpp"

namespace quecc::txn {

txn_desc& batch::add(std::unique_ptr<txn_desc> t) {
  t->seq = static_cast<seq_t>(txns_.size());
  t->id = make_txn_id(id_, t->seq);
  if (t->proc != nullptr) t->resize_slots(t->proc->slot_count());
  t->reset_runtime();
  txns_.push_back(std::move(t));
  return *txns_.back();
}

void batch::reset_runtime() {
  for (auto& t : txns_) t->reset_runtime();
}

void batch::validate() const {
  for (const auto& t : txns_) validate_plan(*t);
}

void validate_plan(const txn_desc& t) {
  const auto fail = [&](const std::string& why) {
    throw std::logic_error("txn seq " + std::to_string(t.seq) + ": " + why);
  };
  if (t.proc == nullptr) fail("no procedure");
  std::uint64_t produced = 0;
  bool saw_update = false;
  for (std::size_t i = 0; i < t.frags.size(); ++i) {
    const fragment& f = t.frags[i];
    if (f.idx != i) fail("fragment idx out of order");
    if (f.abortable && f.updates_database()) {
      fail("abortable fragment updates the database");
    }
    if (f.kind == op_kind::scan) {
      // A cross-partition scan is fanned out into one queue entry per
      // partition; an abortable scan would then decrement
      // pending_abortables once per entry, breaking the commit-dependency
      // counter, so scans must decide nothing.
      if (f.abortable) fail("scan fragments must not be abortable");
      if (f.key_hi <= f.key) fail("scan range [key, key_hi) is empty");
    } else if (f.part == kAllParts) {
      fail("kAllParts is reserved for scan fragments");
    }
    // Conservative execution's commit-dependency wait is deadlock-free only
    // when every abort decision precedes every database update in fragment
    // order — "know your fate before you write": otherwise an update could
    // wait on an abortable fragment queued behind it in the same FIFO.
    if (f.updates_database()) saw_update = true;
    if (f.abortable && saw_update) {
      fail("abortable fragment ordered after a database update");
    }
    if ((f.input_mask & ~produced) != 0) {
      fail("data dependency on a slot not produced by an earlier fragment");
    }
    if (f.output_slot != kNoSlot) {
      if (f.output_slot >= t.slot_count()) fail("output slot out of range");
      const std::uint64_t bit = 1ull << f.output_slot;
      if ((produced & bit) != 0) fail("output slot produced twice");
      produced |= bit;
    }
  }
}

}  // namespace quecc::txn
