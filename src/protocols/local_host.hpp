// In-place fragment host with local undo — shared by every engine that
// executes a transaction in one thread directly against table rows
// (serial reference, H-Store partitions, Calvin workers, and the
// speculation manager's recovery pass).
//
// Always resolves records by key (robust to same-batch inserts/erases),
// keeps an undo stack so a deterministic logic abort rolls the transaction
// back immediately, and optionally records dirtied rows for read-committed
// publishing.
#pragma once

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/phase_annotations.hpp"
#include "storage/database.hpp"
#include "txn/procedure.hpp"

namespace quecc::proto {

class inplace_host final : public txn::frag_host {
 public:
  /// One mutation, reversed by unwinding.
  struct journal_entry {
    table_id_t table;
    key_t key;
    storage::row_id_t rid;
    txn::op_kind op;
    /// Updates only: offset of the row's before-image (one full row) in
    /// the owning journal's `bytes`.
    std::size_t before = 0;
    /// Inserts only: the entry allocated `rid`, so unwinding it frees the
    /// slot. A rollback's re-link of an erased key is journaled as an
    /// insert too, but its slot stays allocated (erased slots are never
    /// reused).
    bool allocated = false;
  };

  /// Mutations in order, with every before-image in one byte arena so
  /// recording allocates nothing once capacity is reached.
  struct journal {
    std::vector<journal_entry> entries;
    std::vector<std::byte> bytes;

    void add(table_id_t table, key_t key, storage::row_id_t rid,
             txn::op_kind op, std::span<const std::byte> image = {},
             bool allocated = false) {
      entries.push_back({table, key, rid, op, bytes.size(), allocated});
      bytes.insert(bytes.end(), image.begin(), image.end());
    }
    void clear() noexcept {
      entries.clear();
      bytes.clear();
    }
  };

  explicit inplace_host(
      storage::database& db,
      std::vector<std::pair<table_id_t, storage::row_id_t>>* dirty = nullptr)
      : db_(db), dirty_(dirty) {}

  /// Record every mutation (including rollback restores) into `j`, never
  /// cleared by begin_txn(). Reverse-applying the journal restores the
  /// database to its state when the journal was attached — the speculation
  /// manager uses this to unwind a recovery pass that needs escalation.
  void set_journal(journal* j) noexcept { journal_ = j; }

  /// Free the slots of inserts rolled back while a journal was attached,
  /// in rollback order. Until then they stay allocated: unwinding the
  /// journal re-links each key to its slot before unwinding the insert,
  /// which frees it once.
  void retire_rolled_back() {
    for (const auto& [table, rid] : rolled_back_) {
      db_.at(table).retire_unindexed(rid);
    }
    rolled_back_.clear();
  }

  void begin_txn() { undo_.clear(); }

  /// Undo every effect since begin_txn(), newest first. A rolled-back
  /// insert frees its slot (deferred to retire_rolled_back() while a
  /// journal is attached).
  void rollback_txn() {
    for (auto it = undo_.entries.rbegin(); it != undo_.entries.rend(); ++it) {
      auto& tab = db_.at(it->table);
      switch (it->op) {
        case txn::op_kind::update: {
          auto row = tab.row(it->rid);
          if (journal_ != nullptr) {
            journal_->add(it->table, it->key, it->rid, txn::op_kind::update,
                          row);
          }
          std::memcpy(row.data(), undo_.bytes.data() + it->before,
                      row.size());
          break;
        }
        case txn::op_kind::insert:
          tab.erase(it->key, storage::rid_shard(it->rid));
          if (journal_ != nullptr) {
            journal_->add(it->table, it->key, it->rid, txn::op_kind::erase);
            rolled_back_.emplace_back(it->table, it->rid);
          } else {
            tab.retire_unindexed(it->rid);
          }
          break;
        case txn::op_kind::erase:
          if (journal_ != nullptr) {
            journal_->add(it->table, it->key, it->rid, txn::op_kind::insert);
          }
          tab.index_row(it->key, it->rid);
          break;
        case txn::op_kind::read:
        case txn::op_kind::scan:
          break;
      }
    }
    undo_.clear();
  }

  EXEC_PHASE std::span<const std::byte> read_row(const txn::fragment& f,
                                                 txn::txn_desc&) override {
    // Partition-local: home arena, no index lock (frag_host contract —
    // conflicting ops on a key are already serialized upstream).
    const auto rid = db_.at(f.table).lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    return db_.at(f.table).row(rid);
  }

  EXEC_PHASE std::span<std::byte> update_row(const txn::fragment& f,
                                             txn::txn_desc&) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    auto row = tab.row(rid);
    undo_.add(f.table, f.key, rid, txn::op_kind::update, row);
    if (journal_ != nullptr) {
      journal_->add(f.table, f.key, rid, txn::op_kind::update, row);
    }
    if (dirty_ != nullptr) dirty_->emplace_back(f.table, rid);
    return row;
  }

  EXEC_PHASE std::span<std::byte> insert_row(const txn::fragment& f,
                                             txn::txn_desc&) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.allocate_row(f.part);
    auto row = tab.row(rid);
    std::memset(row.data(), 0, row.size());
    if (!tab.index_row(f.key, rid)) {
      tab.retire_unindexed(rid);  // duplicate key: recycle the slot
      return {};
    }
    undo_.add(f.table, f.key, rid, txn::op_kind::insert, {}, true);
    if (journal_ != nullptr) {
      journal_->add(f.table, f.key, rid, txn::op_kind::insert, {}, true);
    }
    if (dirty_ != nullptr) dirty_->emplace_back(f.table, rid);
    return row;
  }

  EXEC_PHASE bool erase_row(const txn::fragment& f, txn::txn_desc&) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return false;
    if (!tab.erase(f.key, f.part)) return false;
    undo_.add(f.table, f.key, rid, txn::op_kind::erase);
    if (journal_ != nullptr) {
      journal_->add(f.table, f.key, rid, txn::op_kind::erase);
    }
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
  journal undo_;                 ///< per-txn, cleared by begin_txn
  journal* journal_ = nullptr;  ///< external, persistent
  /// Slots of journaled insert rollbacks, awaiting retire_rolled_back().
  std::vector<std::pair<table_id_t, storage::row_id_t>> rolled_back_;
};

/// Reverse-apply a journal (newest first), restoring the database to its
/// state when the journal was attached. Unwound inserts free the slots
/// they allocated, in unwind order; the host's deferred rollback slots
/// must then be dropped, not retired (unwinding re-linked their keys and
/// then unwound the inserts, which freed them here).
inline void unwind_journal(storage::database& db,
                           const inplace_host::journal& j) {
  for (auto it = j.entries.rbegin(); it != j.entries.rend(); ++it) {
    auto& tab = db.at(it->table);
    switch (it->op) {
      case txn::op_kind::update: {
        const auto row = tab.row(it->rid);
        std::memcpy(row.data(), j.bytes.data() + it->before, row.size());
        break;
      }
      case txn::op_kind::insert:
        tab.erase(it->key, storage::rid_shard(it->rid));
        if (it->allocated) tab.retire_unindexed(it->rid);
        break;
      case txn::op_kind::erase:
        tab.index_row(it->key, it->rid);
        break;
      case txn::op_kind::read:
      case txn::op_kind::scan:
        break;
    }
  }
}

/// Run one transaction's fragments in index order against `host`.
/// Returns true when the transaction committed, false on logic abort
/// (the host has already been rolled back). Leaves txn status set.
/// Exec-phase: the serial engines' whole execution stage, and the unit of
/// re-execution the commit epilogue's speculation recovery reuses.
EXEC_PHASE bool run_txn_serially(txn::txn_desc& t, inplace_host& host);

}  // namespace quecc::proto
