// Batches: the unit of deterministic processing.
//
// Paper Section 3.2: "the essence of this paradigm is to process batches of
// transactions in two deterministic phases". A batch owns its transaction
// descriptors (stable addresses — runtime contexts contain atomics) and
// assigns the sequence numbers that define the serial-equivalent order.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "txn/txn_context.hpp"

namespace quecc::txn {

class batch {
 public:
  explicit batch(std::uint32_t id = 0) : id_(id) {}

  std::uint32_t id() const noexcept { return id_; }
  void set_id(std::uint32_t id) noexcept { id_ = id; }

  /// Append a transaction; assigns seq and txn id, returns the descriptor.
  txn_desc& add(std::unique_ptr<txn_desc> t);

  std::size_t size() const noexcept { return txns_.size(); }
  txn_desc& at(std::size_t i) { return *txns_[i]; }
  const txn_desc& at(std::size_t i) const { return *txns_[i]; }

  auto begin() { return txns_.begin(); }
  auto end() { return txns_.end(); }
  auto begin() const { return txns_.begin(); }
  auto end() const { return txns_.end(); }

  /// Reset every transaction's runtime context (for re-running the same
  /// batch, e.g. in determinism tests or repeated bench iterations).
  void reset_runtime();

  /// Validate every transaction's plan; throws std::logic_error describing
  /// the first violation. See validate_plan() below.
  void validate() const;

 private:
  std::uint32_t id_;
  std::vector<std::unique_ptr<txn_desc>> txns_;
};

/// Structural invariants a planned transaction must satisfy:
///  * every input slot is produced by a fragment with a smaller idx
///    (data dependencies point backwards — the executor's data-dependency
///    wait is deadlock-free only because of it, see core/executor.cpp),
///  * output slots are within the procedure's slot count and unique,
///  * abortable fragments are read-only (commit-dependency wait safety),
///  * fragment idx values are 0..n-1 in order.
/// Throws std::logic_error on violation.
void validate_plan(const txn_desc& t);

}  // namespace quecc::txn
