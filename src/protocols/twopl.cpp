#include "protocols/twopl.hpp"

#include <cstring>

#include "common/spinlock.hpp"
#include "core/exec_log.hpp"

namespace quecc::proto {

namespace {

constexpr std::uint64_t kXBit = 1ull << 63;

enum class lock_mode : std::uint8_t { shared, exclusive };

/// Worker context implementing both 2PL flavours. Writes go in place under
/// exclusive latches with undo logging; aborts roll back then release.
class twopl_ctx final : public worker_ctx, public txn::frag_host {
 public:
  twopl_ctx(storage::database& db, twopl_variant variant,
            std::atomic<std::uint64_t>& ts_source)
      : db_(db), variant_(variant), ts_source_(ts_source) {}

  txn::frag_host& host() override { return *this; }

  void begin(txn::txn_desc&) override {
    cc_failed_ = false;
    held_.clear();
    undo_.clear();
    // Wait-die keeps the *first* attempt's timestamp across retries so a
    // repeatedly-dying transaction eventually becomes the oldest and wins.
    // relaxed: timestamps need uniqueness only, not ordering.
    if (ts_ == 0) ts_ = ts_source_.fetch_add(1, std::memory_order_relaxed);
  }

  bool cc_failed() const noexcept override { return cc_failed_; }

  bool try_commit(txn::txn_desc&,
                  const std::function<void()>& at_serialization) override {
    // 2PL serialization point: all locks held right now.
    at_serialization();
    release_all();
    undo_.clear();
    ts_ = 0;  // fresh timestamp for the worker's next transaction
    return true;
  }

  void abort_attempt(txn::txn_desc& t) override {
    rollback();
    release_all();
    if (t.aborted()) ts_ = 0;  // logic abort is final; next txn re-stamps
  }

  // --- frag_host -----------------------------------------------------------
  std::span<const std::byte> read_row(const txn::fragment& f,
                                      txn::txn_desc&) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    if (!acquire(f.table, rid, lock_mode::shared)) return {};
    return tab.row(rid);
  }

  std::span<std::byte> update_row(const txn::fragment& f,
                                  txn::txn_desc& t) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    if (!acquire(f.table, rid, lock_mode::exclusive)) return {};
    auto row = tab.row(rid);
    undo_.add(t.seq, f.table, f.key, rid, txn::op_kind::update, row);
    return row;
  }

  std::span<std::byte> insert_row(const txn::fragment& f,
                                  txn::txn_desc& t) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.allocate_row(f.part);
    auto row = tab.row(rid);
    std::memset(row.data(), 0, row.size());
    // The new row is exclusively ours until commit: latch it before
    // indexing so a concurrent reader that finds the key conflicts
    // normally instead of seeing a half-built record.
    tab.meta(rid).word1.store(kXBit | 1, std::memory_order_release);
    if (variant_ == twopl_variant::wait_die) {
      tab.meta(rid).word2.store(ts_, std::memory_order_release);
    }
    held_.push_back({f.table, rid, lock_mode::exclusive});
    if (!tab.index_row(f.key, rid)) {
      // Duplicate key: drop the latch we just took on the unindexed slot
      // and recycle it instead of leaking loader headroom on every retry.
      tab.meta(rid).word1.store(0, std::memory_order_release);
      held_.pop_back();
      tab.retire_unindexed(rid);
      cc_failed_ = true;  // treat as conflict and retry
      return {};
    }
    undo_.add(t.seq, f.table, f.key, rid, txn::op_kind::insert);
    return row;
  }

  bool erase_row(const txn::fragment& f, txn::txn_desc& t) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return false;
    if (!acquire(f.table, rid, lock_mode::exclusive)) return false;
    if (!tab.erase(f.key, f.part)) return false;
    undo_.add(t.seq, f.table, f.key, rid, txn::op_kind::erase);
    return true;
  }

 private:
  struct held_lock {
    table_id_t table;
    storage::row_id_t rid;
    lock_mode mode;
  };
  held_lock* find_held(table_id_t table, storage::row_id_t rid) {
    for (auto& h : held_) {
      if (h.table == table && h.rid == rid) return &h;
    }
    return nullptr;
  }

  bool acquire(table_id_t table, storage::row_id_t rid, lock_mode want) {
    if (held_lock* h = find_held(table, rid)) {
      if (h->mode == lock_mode::exclusive || want == lock_mode::shared) {
        return true;
      }
      if (!upgrade(table, rid)) {
        cc_failed_ = true;
        return false;
      }
      h->mode = lock_mode::exclusive;
      return true;
    }
    const bool ok = variant_ == twopl_variant::no_wait
                        ? acquire_no_wait(table, rid, want)
                        : acquire_wait_die(table, rid);
    if (!ok) {
      cc_failed_ = true;
      return false;
    }
    held_.push_back({table, rid,
                     variant_ == twopl_variant::wait_die
                         ? lock_mode::exclusive
                         : want});
    return true;
  }

  bool acquire_no_wait(table_id_t table, storage::row_id_t rid,
                       lock_mode want) {
    auto& w = db_.at(table).meta(rid).word1;
    std::uint64_t cur = w.load(std::memory_order_acquire);
    while (true) {
      if (want == lock_mode::shared) {
        if ((cur & kXBit) != 0) return false;  // no-wait: abort on conflict
        if (w.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel))
          return true;
      } else {
        if (cur != 0) return false;
        if (w.compare_exchange_weak(cur, kXBit | 1,
                                    std::memory_order_acq_rel))
          return true;
      }
    }
  }

  bool upgrade(table_id_t table, storage::row_id_t rid) {
    // NoWait upgrade: succeeds only when we are the sole reader.
    auto& w = db_.at(table).meta(rid).word1;
    std::uint64_t expect = 1;
    return w.compare_exchange_strong(expect, kXBit | 1,
                                     std::memory_order_acq_rel);
  }

  bool acquire_wait_die(table_id_t table, storage::row_id_t rid) {
    auto& meta = db_.at(table).meta(rid);
    common::backoff bo;
    while (true) {
      std::uint64_t cur = meta.word1.load(std::memory_order_acquire);
      if (cur == 0) {
        if (meta.word1.compare_exchange_weak(cur, kXBit | 1,
                                             std::memory_order_acq_rel)) {
          meta.word2.store(ts_, std::memory_order_release);
          return true;
        }
        continue;
      }
      const std::uint64_t holder_ts =
          meta.word2.load(std::memory_order_acquire);
      if (ts_ >= holder_ts) return false;  // younger dies
      bo.spin();                           // older waits
    }
  }

  void release_all() {
    for (const auto& h : held_) {
      auto& w = db_.at(h.table).meta(h.rid).word1;
      if (h.mode == lock_mode::exclusive) {
        w.store(0, std::memory_order_release);
      } else {
        w.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    held_.clear();
  }

  /// Undo newest first while every latch is still held. A rolled-back
  /// insert only unlinks its key and keeps its slot: another worker may
  /// have looked the key up and still touch the slot's latch, so the slot
  /// must never be recycled (table::retire_unindexed).
  void rollback() {
    const auto& entries = undo_.entries;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (it->op == txn::op_kind::insert) {
        db_.at(it->table).erase(it->key, storage::rid_shard(it->rid));
      } else {
        core::undo(db_, undo_, *it);
      }
    }
    undo_.clear();
  }

  storage::database& db_;
  twopl_variant variant_;
  std::atomic<std::uint64_t>& ts_source_;
  std::uint64_t ts_ = 0;
  bool cc_failed_ = false;
  std::vector<held_lock> held_;
  core::undo_log undo_;
};

}  // namespace

twopl_engine::twopl_engine(storage::database& db, const common::config& cfg,
                           twopl_variant variant)
    : nd_engine_base(db, cfg,
                     variant == twopl_variant::no_wait ? "2pl-nowait"
                                                       : "2pl-waitdie"),
      variant_(variant) {}

std::unique_ptr<worker_ctx> twopl_engine::make_worker(unsigned) {
  return std::make_unique<twopl_ctx>(db_, variant_, ts_source_);
}

}  // namespace quecc::proto
