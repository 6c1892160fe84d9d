#include "protocols/silo.hpp"

#include <algorithm>
#include <cstring>

#include "common/spinlock.hpp"

namespace quecc::proto {

namespace {

constexpr std::uint64_t kLockBit = 1ull << 63;
constexpr std::uint64_t kTidMask = kLockBit - 1;

class silo_ctx final : public worker_ctx, public txn::frag_host {
 public:
  explicit silo_ctx(storage::database& db) : db_(db) {}

  txn::frag_host& host() override { return *this; }

  void begin(txn::txn_desc&) override {
    cc_failed_ = false;
    reads_.clear();
    writes_.clear();
    read_bufs_.clear();
  }

  bool cc_failed() const noexcept override { return cc_failed_; }

  bool try_commit(txn::txn_desc&,
                  const std::function<void()>& at_serialization) override {
    // Phase 1: lock the write set in deterministic (table, key) order —
    // unique per record, so concurrent committers cannot deadlock.
    std::sort(writes_.begin(), writes_.end(), [](const auto& a,
                                                 const auto& b) {
      return std::tie(a.table, a.key) < std::tie(b.table, b.key);
    });
    std::size_t locked = 0;
    for (auto& w : writes_) {
      if (w.op == txn::op_kind::insert) continue;  // private until install
      if (!lock_tid(db_.at(w.table).meta(w.rid).word1)) {
        unlock_first(locked);
        return false;
      }
      ++locked;
      w.locked = true;
    }

    // Phase 2: validate the read set.
    std::uint64_t max_tid = 0;
    for (const auto& r : reads_) {
      const std::uint64_t cur =
          db_.at(r.table).meta(r.rid).word1.load(std::memory_order_acquire);
      if ((cur & kTidMask) != r.tid ||
          (((cur & kLockBit) != 0) && !in_write_set(r.table, r.rid))) {
        unlock_first(locked);
        return false;
      }
      max_tid = std::max(max_tid, r.tid);
    }
    for (const auto& w : writes_) {
      if (w.op != txn::op_kind::insert) {
        max_tid = std::max(
            max_tid, db_.at(w.table).meta(w.rid).word1.load(
                         std::memory_order_acquire) &
                         kTidMask);
      }
    }
    const std::uint64_t commit_tid = max_tid + 1;

    // Phase 3: serialization point — locks held, validation passed.
    at_serialization();

    // Install. Inserts allocate + index here so concurrent readers only
    // ever see fully-built rows.
    for (auto& w : writes_) {
      auto& tab = db_.at(w.table);
      switch (w.op) {
        case txn::op_kind::update: {
          seqlock_store(tab.row(w.rid), w.buf);
          tab.meta(w.rid).word1.store(commit_tid, std::memory_order_release);
          w.locked = false;
          break;
        }
        case txn::op_kind::insert: {
          const auto rid = tab.allocate_row(w.part);
          auto row = tab.row(rid);
          std::memcpy(row.data(), w.buf.data(),
                      std::min(w.buf.size(), row.size()));
          tab.meta(rid).word1.store(commit_tid, std::memory_order_release);
          if (!tab.index_row(w.key, rid)) tab.retire_unindexed(rid);
          break;
        }
        case txn::op_kind::erase: {
          tab.erase(w.key, storage::rid_shard(w.rid));
          tab.meta(w.rid).word1.store(commit_tid, std::memory_order_release);
          w.locked = false;
          break;
        }
        case txn::op_kind::read:
        case txn::op_kind::scan:
          break;
      }
    }
    return true;
  }

  void abort_attempt(txn::txn_desc&) override {
    // Nothing was installed; buffers are private. Locks, if any, were
    // released on the failing path already.
    reads_.clear();
    writes_.clear();
    read_bufs_.clear();
  }

  // --- frag_host -----------------------------------------------------------
  std::span<const std::byte> read_row(const txn::fragment& f,
                                      txn::txn_desc&) override {
    if (auto* w = find_write(f.table, f.key)) return w->buf;  // own write
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    auto& buf = read_bufs_.emplace_back();
    const std::uint64_t tid = stable_copy(f.table, rid, buf);
    reads_.push_back({f.table, rid, tid});
    return buf;
  }

  std::span<std::byte> update_row(const txn::fragment& f,
                                  txn::txn_desc&) override {
    if (auto* w = find_write(f.table, f.key)) return w->buf;
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    auto& w = writes_.emplace_back();
    w.table = f.table;
    w.key = f.key;
    w.rid = rid;
    w.op = txn::op_kind::update;
    const std::uint64_t tid = stable_copy(f.table, rid, w.buf);
    reads_.push_back({f.table, rid, tid});  // RMW validates the read, too
    return w.buf;
  }

  std::span<std::byte> insert_row(const txn::fragment& f,
                                  txn::txn_desc&) override {
    auto& w = writes_.emplace_back();
    w.table = f.table;
    w.key = f.key;
    w.part = f.part;  // home arena for the install-time allocation
    w.op = txn::op_kind::insert;
    w.buf.assign(db_.at(f.table).layout().row_size(), std::byte{0});
    return w.buf;
  }

  bool erase_row(const txn::fragment& f, txn::txn_desc&) override {
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return false;
    auto& w = writes_.emplace_back();
    w.table = f.table;
    w.key = f.key;
    w.rid = rid;
    w.op = txn::op_kind::erase;
    return true;
  }

 private:
  struct read_rec {
    table_id_t table;
    storage::row_id_t rid;
    std::uint64_t tid;
  };
  struct write_rec {
    table_id_t table;
    key_t key;
    part_id_t part = 0;  ///< home partition (insert install routes by it)
    storage::row_id_t rid = storage::kNoRow;
    txn::op_kind op = txn::op_kind::update;
    bool locked = false;
    std::vector<std::byte> buf;
  };

  write_rec* find_write(table_id_t table, key_t key) {
    for (auto& w : writes_) {
      if (w.table == table && w.key == key &&
          w.op != txn::op_kind::erase) {
        return &w;
      }
    }
    return nullptr;
  }

  bool in_write_set(table_id_t table, storage::row_id_t rid) const {
    for (const auto& w : writes_) {
      if (w.table == table && w.rid == rid) return true;
    }
    return false;
  }

  /// Optimistic stable read: TID unlocked and unchanged around the copy.
  std::uint64_t stable_copy(table_id_t table, storage::row_id_t rid,
                            std::vector<std::byte>& out) {
    auto& tab = db_.at(table);
    auto& word = tab.meta(rid).word1;
    const auto row = tab.row(rid);
    out.resize(row.size());
    common::backoff bo;
    while (true) {
      const std::uint64_t v1 = word.load(std::memory_order_acquire);
      if ((v1 & kLockBit) == 0) {
        seqlock_load(out, row);
        std::atomic_thread_fence(std::memory_order_acquire);
        const std::uint64_t v2 = word.load(std::memory_order_acquire);
        if (v1 == v2) return v1;
      }
      bo.spin();
    }
  }

  static bool lock_tid(std::atomic<std::uint64_t>& word) {
    std::uint64_t cur = word.load(std::memory_order_acquire);
    while (true) {
      if ((cur & kLockBit) != 0) return false;  // occupied: validation abort
      if (word.compare_exchange_weak(cur, cur | kLockBit,
                                     std::memory_order_acq_rel)) {
        return true;
      }
    }
  }

  void unlock_first(std::size_t n) {
    for (auto& w : writes_) {
      if (n == 0) break;
      if (w.locked) {
        db_.at(w.table).meta(w.rid).word1.fetch_and(
            kTidMask, std::memory_order_release);
        w.locked = false;
        --n;
      }
    }
  }

  storage::database& db_;
  bool cc_failed_ = false;
  std::vector<read_rec> reads_;
  std::vector<write_rec> writes_;
  std::vector<std::vector<std::byte>> read_bufs_;
};

}  // namespace

std::unique_ptr<worker_ctx> silo_engine::make_worker(unsigned) {
  return std::make_unique<silo_ctx>(db_);
}

}  // namespace quecc::proto
