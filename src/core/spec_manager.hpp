// Speculation manager: deterministic recovery from logic aborts under
// speculative execution.
//
// Paper Section 3.2: "When using speculative execution, additional
// speculation dependencies occur. Resolving them may cause cascading
// aborts." This component resolves them at batch commit time, in four
// phases (each timed into a spec.*_nanos histogram by the engine):
//
//  1. Dependency index — every executor log's point reads and undo entries
//     become one vector of (table, key, seq, writer log) accesses,
//     radix-sorted once by (table, key, seq). Runs of equal (table, key)
//     are records (exact keys, no fingerprint); compressed-sparse-row
//     arrays give each record its accessor seqs and its writer seqs, both
//     ascending, and each seq the records it actually wrote. A flat
//     open-addressing map finds a fragment's record. Scan range reads
//     become precomputed writer -> scan edges: one interval query per
//     range read against the sorted records.
//  2. Taint closure — starting from the logic-aborted transactions, two
//     edge kinds close the affected set:
//       (a) forward: a later accessor of a record an affected transaction
//           *actually wrote* (undo-log evidence) read dirty data — and so
//           did a later scan whose range covers such a key (phantoms);
//       (b) backward: a later writer of a record an affected transaction's
//           fragments touch (a point, or any key inside a scan range) must
//           be undone and replayed after it, or the affected transaction's
//           re-execution would observe values from its own future.
//     Actual writes — not declared write sets — keep cascades proportional
//     to real dirty data. Each record keeps one watermark per edge kind:
//     the list position from which every later seq is already tainted. A
//     propagation from seq t walks back from the watermark while seqs
//     exceed t, then lowers it, so every list is walked once in total, not
//     once per affected transaction.
//  3. Rollback — each executor log's undo entries of affected transactions
//     are reversed newest-first by core::undo, the one reverse function
//     every rollback shares (core/exec_log.hpp): before-images for
//     updates, unlink + free the slot for inserts, re-link for erases.
//     This is correct because every record's undo entries sit in exactly
//     one executor log, in sequence order: the planner routes every
//     fragment of a record to one executor (core/planner.cpp), and
//     dist-quecc keeps that per node. The index checks the invariant and
//     counts violations (split_records). Slots are freed in log order, so
//     free lists and rids replay deterministically.
//  4. Deterministic re-execution — affected transactions re-run serially
//     in sequence order against the repaired state, through one
//     inplace_host over an undo log kept for the whole pass; deterministic
//     logic aborts repeat, stay aborted and roll back at once (freeing
//     their inserted slots), so the log keeps only committed re-runs;
//     dirty-read victims now commit with clean values. Under
//     read-committed isolation, reads the planner routed to read queues
//     re-read the previous batch's committed image, as they first did.
//  Escalation — if a re-run flips an abort into a commit, the
//     transaction may now write records it never wrote originally, whose
//     later readers were not tainted. The pass's log is rolled back to
//     its start, the unaffected transactions' undo entries are applied
//     newest-first too (edge (b) makes each record's affected entries a
//     suffix of its log entries, so step 3 plus this is a complete
//     newest-first undo — the batch-start state), and the batch is
//     re-executed serially end-to-end — the unconditionally correct
//     fallback.
//
// Cost: O(E log E) for E log entries, the log factor only from one binary
// search per range read and per scan fragment. Everything else is linear:
// the radix sort (at most 14 passes), the CSR and map builds, a closure
// that walks each list once and probes the map once per fragment of an
// affected transaction, at most one range edge per (range read, writer)
// pair, and rollback. Batches without logic aborts return before building
// anything.
//
// Inputs: the executor logs exist only for batches in which some
// transaction can still abort at run time (plan_output::runtime_abortables
// != 0); the engine calls recover for those batches only, and treats a
// run-time abort in any other batch as a broken invariant.
//
// The outcome equals a serial execution of the batch in sequence order
// with aborted transactions producing no effects — the determinism
// contract.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/phase_annotations.hpp"
#include "core/exec_log.hpp"
#include "storage/database.hpp"
#include "storage/dual_version.hpp"
#include "txn/batch.hpp"

namespace quecc::core {

struct recovery_stats {
  std::uint32_t logic_aborts = 0;  ///< transactions that aborted on logic
  std::uint32_t cascades = 0;      ///< extra txns tainted via speculation
  std::uint32_t reexecuted = 0;    ///< serial re-executions performed
  bool full_redo = false;          ///< escalated to whole-batch re-execution
  /// Records whose undo entries span more than one executor log. Rollback
  /// in log order requires zero; tests assert it.
  std::uint32_t split_records = 0;
  // Phase wall times, set only when the batch had logic aborts.
  std::uint64_t index_nanos = 0;     ///< dependency index build
  std::uint64_t taint_nanos = 0;     ///< taint closure
  std::uint64_t rollback_nanos = 0;  ///< undo (+ escalation restore)
  std::uint64_t reexec_nanos = 0;    ///< re-execution (+ full replay)
};

class spec_manager {
 public:
  explicit spec_manager(storage::database& db) : db_(db) {}

  /// Run recovery over `b` given every executor's logs (indexed by
  /// executor id). Leaves aborted transactions with txn_status::aborted
  /// and re-committed ones with txn_status::active (the engine epilogue
  /// marks commits). Returns what happened for metrics. Under
  /// read-committed isolation `committed` is the committed-version store,
  /// still holding the previous batch's image: re-executions serve the
  /// reads the planner sent to read queues from it, as the executors did.
  EPILOGUE_PHASE recovery_stats recover(
      txn::batch& b, std::span<exec_logs* const> logs,
      const storage::dual_version_store* committed = nullptr);

  /// Rows dirtied by recovery re-execution; the engine merges these into
  /// the read-committed publish set.
  const std::vector<std::pair<table_id_t, storage::row_id_t>>& extra_dirty()
      const noexcept {
    return extra_dirty_;
  }

 private:
  /// One point read or undo entry of some executor log.
  struct access {
    key_t key;
    seq_t seq;
    table_id_t table;
    std::uint16_t log;  ///< writer's executor log; kReadOnly for reads
  };
  static constexpr std::uint16_t kReadOnly = 0xffff;
  struct record {
    key_t key;
    table_id_t table;
  };

  /// Phase 1: fill the index below from `logs`; returns split_records.
  std::uint32_t build_index(std::span<exec_logs* const> logs, std::size_t n);
  /// Sort `v` by (table, key, seq); `tmp` is scratch of any content.
  static void radix_sort(std::vector<access>& v, std::vector<access>& tmp);
  /// First record with (table, key) >= the pair.
  std::uint32_t lower_record(table_id_t table, key_t key) const noexcept;
  /// The record of (table, key), or kNoRecord (flat-map probe).
  std::uint32_t find_record(table_id_t table, key_t key) const noexcept;
  static constexpr std::uint32_t kNoRecord = 0xffffffffu;

  storage::database& db_;
  std::vector<std::pair<table_id_t, storage::row_id_t>> extra_dirty_;

  // Per-batch scratch, kept across batches to reuse its capacity.
  std::vector<access> accesses_;      ///< sorted by (table, key, seq)
  std::vector<access> scratch_;       ///< radix-sort buffer
  std::vector<record> records_;       ///< distinct (table, key), ascending
  /// Open-addressing map (table, key) -> record, linear probing on
  /// record_hash; only ever probed, never iterated.
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint32_t> acc_off_;  ///< record -> acc_seq_ range
  std::vector<seq_t> acc_seq_;          ///< accessors, ascending per record
  std::vector<std::uint32_t> wr_off_;   ///< record -> wr_seq_ range
  std::vector<seq_t> wr_seq_;           ///< writers, ascending per record
  std::vector<std::uint32_t> wrote_off_;  ///< seq -> wrote_rec_ range
  std::vector<std::uint32_t> wrote_rec_;  ///< records each seq wrote
  std::vector<read_entry> ranges_;  ///< scan range reads [key, hi)
  std::vector<std::uint32_t> scan_off_;  ///< writer seq -> scan_seq_ range
  std::vector<seq_t> scan_seq_;          ///< later scans covering its writes
  std::vector<std::pair<seq_t, std::uint32_t>> pairs_;  ///< counting-sort input
  std::vector<std::uint32_t> wm_a_;  ///< edge (a) watermark into acc_seq_
  std::vector<std::uint32_t> wm_b_;  ///< edge (b) watermark into wr_seq_
  std::vector<std::uint8_t> affected_;
  std::vector<seq_t> worklist_;
  undo_log pass_log_;  ///< re-execution pass: committed re-runs' effects
};

}  // namespace quecc::core
