// The undo log every rollback in the tree uses, and the executors' read
// tracking.
//
// Speculative execution (paper Section 3.2) applies writes in place, so a
// deterministic logic abort is undone from before-images. One `undo_log`
// type and one `undo()` serve every rollback in the tree:
//  * each executor's per-batch log (`exec_logs`, core/executor), which the
//    speculation manager rolls back selectively by seq; its read log
//    answers "who accessed this record after the aborted writer", and
//    under read-committed its undo entries are the dirtied rows the commit
//    epilogue publishes. An executor fills it only for those readers:
//    reads, before-images and undo entries in speculative batches that
//    can abort at run time, update and insert entries without images
//    (len == 0) in other read-committed batches, nothing otherwise
//    (core/executor.hpp);
//  * `proto::inplace_host` — the serial, H-Store and Calvin engines roll a
//    logic-aborted transaction back to the mark taken at begin_txn;
//  * the speculation manager's recovery pass, an inplace_host over one log
//    kept across its re-runs: aborted re-runs truncate their own entries,
//    so the log holds only committed re-runs, and escalation unwinds them
//    with rollback_to(db, 0);
//  * the 2PL workers (protocols/twopl.cpp), which undo inserts by unlinking
//    only: under concurrency a slot another worker may still reach is
//    never recycled.
//
// Each executor owns one `exec_logs`; nothing here is shared during the
// execution phase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "storage/database.hpp"
#include "txn/fragment.hpp"

namespace quecc::core {

struct undo_entry {
  seq_t seq = 0;
  table_id_t table = 0;
  key_t key = kInvalidKey;
  storage::row_id_t rid = storage::kNoRow;
  txn::op_kind op = txn::op_kind::update;
  std::uint32_t image = 0;  ///< before-image start in undo_log::images
  std::uint32_t len = 0;    ///< before-image length (0: none kept)
};

struct undo_log {
  std::vector<undo_entry> entries;
  std::vector<std::byte> images;  ///< before-image bytes, append-only

  std::size_t size() const noexcept { return entries.size(); }

  /// Log one mutation; updates pass the row's before-image (or nothing,
  /// when the entry only records the write).
  void add(seq_t seq, table_id_t table, key_t key, storage::row_id_t rid,
           txn::op_kind op, std::span<const std::byte> image = {}) {
    entries.push_back({seq, table, key, rid, op,
                       static_cast<std::uint32_t>(images.size()),
                       static_cast<std::uint32_t>(image.size())});
    images.insert(images.end(), image.begin(), image.end());
  }

  void clear() noexcept {
    entries.clear();
    images.clear();
  }

  /// Undo every entry from position `mark` (an earlier size()) on, newest
  /// first, then drop them and their before-images.
  void rollback_to(storage::database& db, std::size_t mark);
};

/// Reverse one entry: copy the before-image back for an update, unlink the
/// key and free the slot for an insert, re-link the key for an erase.
inline void undo(storage::database& db, const undo_log& log,
                 const undo_entry& e) {
  auto& tab = db.at(e.table);
  switch (e.op) {
    case txn::op_kind::update:
      std::memcpy(tab.row(e.rid).data(), log.images.data() + e.image, e.len);
      break;
    case txn::op_kind::insert:
      tab.erase(e.key, storage::rid_shard(e.rid));
      tab.retire_unindexed(e.rid);
      break;
    case txn::op_kind::erase:
      tab.index_row(e.key, e.rid);
      break;
    case txn::op_kind::read:
    case txn::op_kind::scan:
      break;
  }
}

inline void undo_log::rollback_to(storage::database& db, std::size_t mark) {
  if (mark >= entries.size()) return;
  for (std::size_t i = entries.size(); i-- > mark;) {
    undo(db, *this, entries[i]);
  }
  images.resize(entries[mark].image);
  entries.resize(mark);
}

struct read_entry {
  seq_t seq = 0;
  table_id_t table = 0;
  key_t key = kInvalidKey;
  /// Scan fragments log one entry for the whole range [key, hi); point
  /// reads leave hi == 0 (ranges are never empty, so hi > key disambiguates).
  key_t hi = 0;
};

struct exec_logs {
  undo_log undo;
  std::vector<read_entry> reads;

  void clear() noexcept {
    undo.clear();
    reads.clear();
  }
};

}  // namespace quecc::core
