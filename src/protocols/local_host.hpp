// In-place fragment host with local undo — shared by every engine that
// executes a transaction in one thread directly against table rows
// (serial reference, H-Store partitions, Calvin workers, and the
// speculation manager's recovery pass).
//
// Always resolves records by key (robust to same-batch inserts/erases),
// logs every mutation into a core::undo_log so a deterministic logic abort
// rolls the transaction back immediately (rollback_to the mark taken at
// begin_txn), and optionally records dirtied rows for read-committed
// publishing. Given a committed-version store, it serves the reads the
// planner sends to read-committed read queues from that store, as the
// executors did (recovery's re-execution under read-committed isolation).
#pragma once

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/phase_annotations.hpp"
#include "core/exec_log.hpp"
#include "core/planner.hpp"
#include "storage/database.hpp"
#include "storage/dual_version.hpp"
#include "txn/procedure.hpp"

namespace quecc::proto {

class inplace_host final : public txn::frag_host {
 public:
  /// Without `kept`, the host logs into its own log, cleared by every
  /// begin_txn(). With it, every transaction logs into `kept`, which the
  /// host never clears: a rolled-back transaction truncates its own
  /// entries, so `kept` holds exactly the committed transactions' effects
  /// since its owner last cleared it, and rollback_to(db, 0) unwinds them.
  /// With `committed`, read-queue reads (core::goes_to_read_queue) return
  /// the committed image of the row their queue entry resolved before the
  /// batch ran (fragment::rid), not the working row.
  explicit inplace_host(
      storage::database& db,
      std::vector<std::pair<table_id_t, storage::row_id_t>>* dirty = nullptr,
      core::undo_log* kept = nullptr,
      const storage::dual_version_store* committed = nullptr)
      : db_(db),
        dirty_(dirty),
        log_(kept != nullptr ? kept : &own_),
        committed_(committed) {}
  // log_ may point into this object.
  inplace_host(const inplace_host&) = delete;
  inplace_host& operator=(const inplace_host&) = delete;

  void begin_txn() noexcept {
    if (log_ == &own_) own_.clear();
    mark_ = log_->size();
  }

  /// Undo every effect since begin_txn(), newest first; a rolled-back
  /// insert frees its slot.
  void rollback_txn() { log_->rollback_to(db_, mark_); }

  EXEC_PHASE std::span<const std::byte> read_row(const txn::fragment& f,
                                                 txn::txn_desc& t) override {
    // The mask is recomputed per read: only read-committed re-execution
    // passes a store, and transactions hold a few fragments.
    if (committed_ != nullptr &&
        core::goes_to_read_queue(f, core::writer_needed_slots(t))) {
      if (f.rid == storage::kNoRow) return {};
      return committed_->committed_row(f.table, f.rid);
    }
    // Partition-local: home arena, no index lock (frag_host contract —
    // conflicting ops on a key are already serialized upstream).
    const auto rid = db_.at(f.table).lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    return db_.at(f.table).row(rid);
  }

  EXEC_PHASE std::span<std::byte> update_row(const txn::fragment& f,
                                             txn::txn_desc& t) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    auto row = tab.row(rid);
    log_->add(t.seq, f.table, f.key, rid, txn::op_kind::update, row);
    if (dirty_ != nullptr) dirty_->emplace_back(f.table, rid);
    return row;
  }

  EXEC_PHASE std::span<std::byte> insert_row(const txn::fragment& f,
                                             txn::txn_desc& t) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.allocate_row(f.part);
    auto row = tab.row(rid);
    std::memset(row.data(), 0, row.size());
    if (!tab.index_row(f.key, rid)) {
      tab.retire_unindexed(rid);  // duplicate key: recycle the slot
      return {};
    }
    log_->add(t.seq, f.table, f.key, rid, txn::op_kind::insert);
    if (dirty_ != nullptr) dirty_->emplace_back(f.table, rid);
    return row;
  }

  EXEC_PHASE bool erase_row(const txn::fragment& f,
                            txn::txn_desc& t) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return false;
    if (!tab.erase(f.key, f.part)) return false;
    log_->add(t.seq, f.table, f.key, rid, txn::op_kind::erase);
    return true;
  }

  /// Serial scan: a single-partition scan visits the home shard; a
  /// kAllParts scan visits every shard in ascending shard order, each in
  /// ascending key order. This matches the queue-oriented fan-out, whose
  /// per-partition partials sum commutatively (the kAllParts contract —
  /// u64-summable partials; table shard_count must equal the partition
  /// count, which every sharded loader guarantees).
  EXEC_PHASE bool scan_rows(const txn::fragment& f, txn::txn_desc&,
                            scan_row_fn fn, void* ctx) override {
    const auto& tab = db_.at(f.table);
    struct tramp_ctx {
      const storage::table* tab;
      scan_row_fn fn;
      void* ctx;
      bool stopped = false;
    } tc{&tab, fn, ctx};
    const auto visit = [](void* raw, key_t k, storage::row_id_t rid) {
      auto* c = static_cast<tramp_ctx*>(raw);
      if (!c->fn(c->ctx, k, c->tab->row(rid))) {
        c->stopped = true;
        return false;
      }
      return true;
    };
    if (f.part != txn::kAllParts) {
      return tab.visit_range_in(f.part, f.key, f.key_hi, visit, &tc);
    }
    bool supported = true;
    for (part_id_t s = 0; s < tab.shard_count() && !tc.stopped; ++s) {
      supported = tab.visit_range_in(s, f.key, f.key_hi, visit, &tc);
      if (!supported) break;
    }
    return supported;
  }

 private:
  storage::database& db_;
  std::vector<std::pair<table_id_t, storage::row_id_t>>* dirty_;
  core::undo_log own_;
  core::undo_log* log_;   ///< &own_, or the caller's kept log
  const storage::dual_version_store* committed_;  ///< read-committed image
  std::size_t mark_ = 0;  ///< log_->size() at begin_txn
};

/// Run one transaction's fragments in index order against `host`.
/// Returns true when the transaction committed, false on logic abort
/// (the host has already been rolled back). Leaves txn status set.
/// Exec-phase: the serial engines' whole execution stage, and the unit of
/// re-execution the commit epilogue's speculation recovery reuses.
EXEC_PHASE bool run_txn_serially(txn::txn_desc& t, inplace_host& host);

}  // namespace quecc::proto
