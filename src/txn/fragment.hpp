// Transaction fragments — the unit of planning and execution.
//
// Paper Section 3.1: a transaction is broken into fragments containing the
// relevant transaction logic and aborting conditions; a fragment can
// perform multiple operations (read/modify/write) on the *same* record.
//
// Dependencies (paper Table 1) map onto this struct as follows:
//  * data dependency     — `input_mask` names value slots of the owning
//    transaction that must be ready before this fragment runs;
//    `output_slot` is the slot this fragment produces.
//  * conflict dependency — not represented here at all: both fragments are
//    routed to the same execution queue and FIFO order resolves it.
//  * commit dependency   — `kind != read` fragments must not apply before
//    the transaction's abortable fragments resolve (enforced by the
//    conservative executor; tracked via txn_context::pending_abortables).
//    Abortable reads with no inputs on a replicated table resolve while
//    planning (core/planner.hpp), so they leave no commit dependency.
//  * speculation dependency — arises at run time under speculative
//    execution; tracked by the speculation manager's read/undo logs.
#pragma once

#include <cstdint>
#include <limits>

#include "common/types.hpp"
#include "storage/hash_index.hpp"

namespace quecc::txn {

/// What a fragment does to its record.
enum class op_kind : std::uint8_t {
  read,    ///< read-only access
  update,  ///< read-modify-write in place
  insert,  ///< create the record (key known at plan time: routing needs it)
  erase,   ///< unlink the record
  scan,    ///< ordered range read over [key, key_hi) — see below
};

/// Home-partition sentinel for scan fragments whose key range spans every
/// partition: the planner splits such a fragment into one per-partition
/// queue entry (core/frag_queue.hpp), and its producing slot accumulates
/// partials (txn_context::produce_partial). Point fragments never use it.
inline constexpr part_id_t kAllParts = std::numeric_limits<part_id_t>::max();

inline constexpr std::uint16_t kNoSlot = 0xffff;

/// Maximum value slots per transaction; data-dependency wait masks are one
/// 64-bit word wide.
inline constexpr std::size_t kMaxSlots = 64;

/// Result of running one fragment's logic.
enum class frag_status : std::uint8_t {
  ok,
  abort,  ///< deterministic logic abort (abortable fragments only)
};

/// A planned fragment. Immutable during the execution phase. `rid` is set
/// only for read-committed read-queue fragments, resolved at the
/// pre-execution quiescent point (core::batch_slot::resolve_read_queues);
/// every other fragment resolves its key at execution time.
struct fragment {
  table_id_t table = 0;
  part_id_t part = 0;  ///< home partition: routing target for queues
  key_t key = kInvalidKey;
  storage::row_id_t rid = storage::kNoRow;  ///< RC read queues only

  op_kind kind = op_kind::read;
  bool abortable = false;  ///< may deterministically abort the transaction
  std::uint16_t idx = 0;   ///< position within the transaction (total order)
  std::uint16_t logic = 0; ///< procedure-specific logic selector
  std::uint16_t output_slot = kNoSlot;
  std::uint64_t input_mask = 0;  ///< slots that must be ready before running
  std::uint64_t aux = 0;         ///< immediate operand (value, qty, item#...)
  key_t key_hi = 0;  ///< scan only: exclusive upper bound of [key, key_hi)

  /// Kinds whose execution mutates table state. Scans are reads over a
  /// range: they must NOT wait on commit dependencies, NOT count as
  /// updates in plan validation, and NOT publish into the read-committed
  /// store — everything keyed on this predicate.
  bool updates_database() const noexcept {
    return kind != op_kind::read && kind != op_kind::scan;
  }
};

}  // namespace quecc::txn
