#include "protocols/tictoc.hpp"

#include <algorithm>
#include <cstring>

#include "common/spinlock.hpp"

namespace quecc::proto {

namespace {

constexpr std::uint64_t kLockBit = 1ull << 63;
constexpr std::uint64_t kWtsMask = kLockBit - 1;

class tictoc_ctx final : public worker_ctx, public txn::frag_host {
 public:
  explicit tictoc_ctx(storage::database& db) : db_(db) {}

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
    // Lock write set in deterministic order.
    std::sort(writes_.begin(), writes_.end(), [](const auto& a,
                                                 const auto& b) {
      return std::tie(a.table, a.key) < std::tie(b.table, b.key);
    });
    for (auto& w : writes_) {
      if (w.op == txn::op_kind::insert) continue;
      if (!lock_row(w)) {
        unlock_all();
        return false;
      }
    }

    // Compute commit_ts: above every touched read lease, at or above every
    // observed write version.
    std::uint64_t commit_ts = 0;
    for (const auto& w : writes_) {
      if (w.op == txn::op_kind::insert) continue;
      const std::uint64_t rts =
          db_.at(w.table).meta(w.rid).word2.load(std::memory_order_acquire);
      commit_ts = std::max(commit_ts, rts + 1);
    }
    for (const auto& r : reads_) commit_ts = std::max(commit_ts, r.wts);

    // Validate / extend read leases to commit_ts.
    for (const auto& r : reads_) {
      if (in_write_set(r.table, r.rid)) continue;  // validated via lock
      auto& meta = db_.at(r.table).meta(r.rid);
      while (true) {
        const std::uint64_t v = meta.word1.load(std::memory_order_acquire);
        std::uint64_t rts = meta.word2.load(std::memory_order_acquire);
        if ((v & kWtsMask) != r.wts) {  // overwritten since we read it
          unlock_all();
          return false;
        }
        if (rts >= commit_ts) break;  // lease already long enough
        if ((v & kLockBit) != 0) {    // a writer owns it: cannot extend
          unlock_all();
          return false;
        }
        if (meta.word2.compare_exchange_weak(rts, commit_ts,
                                             std::memory_order_acq_rel)) {
          break;
        }
      }
    }

    at_serialization();  // locks held, validation passed

    for (auto& w : writes_) {
      auto& tab = db_.at(w.table);
      switch (w.op) {
        case txn::op_kind::update: {
          seqlock_store(tab.row(w.rid), w.buf);
          // relaxed: the release store of word1 (the wts/lock word readers
          // validate against) below publishes rts alongside the row bytes.
          tab.meta(w.rid).word2.store(commit_ts, std::memory_order_relaxed);
          tab.meta(w.rid).word1.store(commit_ts, std::memory_order_release);
          w.locked = false;
          break;
        }
        case txn::op_kind::insert: {
          const auto rid = tab.allocate_row(w.part);
          auto row = tab.row(rid);
          std::memcpy(row.data(), w.buf.data(),
                      std::min(w.buf.size(), row.size()));
          // relaxed: published by the word1 release store below (see above).
          tab.meta(rid).word2.store(commit_ts, std::memory_order_relaxed);
          tab.meta(rid).word1.store(commit_ts, std::memory_order_release);
          if (!tab.index_row(w.key, rid)) tab.retire_unindexed(rid);
          break;
        }
        case txn::op_kind::erase: {
          tab.erase(w.key, storage::rid_shard(w.rid));
          // relaxed: the release store of word1 (the wts/lock word readers
          // validate against) below publishes rts alongside the row bytes.
          tab.meta(w.rid).word2.store(commit_ts, std::memory_order_relaxed);
          tab.meta(w.rid).word1.store(commit_ts, std::memory_order_release);
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
    reads_.clear();
    writes_.clear();
    read_bufs_.clear();
  }

  // --- frag_host -----------------------------------------------------------
  std::span<const std::byte> read_row(const txn::fragment& f,
                                      txn::txn_desc&) override {
    if (auto* w = find_write(f.table, f.key)) return w->buf;
    auto& tab = db_.at(f.table);
    const auto rid = tab.lookup(f.key, f.part);
    if (rid == storage::kNoRow) return {};
    auto& buf = read_bufs_.emplace_back();
    const auto [wts, rts] = stable_copy(f.table, rid, buf);
    reads_.push_back({f.table, rid, wts, rts});
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
    const auto [wts, rts] = stable_copy(f.table, rid, w.buf);
    w.read_wts = wts;
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
    w.read_wts =
        tab.meta(rid).word1.load(std::memory_order_acquire) & kWtsMask;
    return true;
  }

 private:
  struct read_rec {
    table_id_t table;
    storage::row_id_t rid;
    std::uint64_t wts;
    std::uint64_t rts;
  };
  struct write_rec {
    table_id_t table;
    key_t key;
    part_id_t part = 0;  ///< home partition (insert install routes by it)
    storage::row_id_t rid = storage::kNoRow;
    txn::op_kind op = txn::op_kind::update;
    bool locked = false;
    std::uint64_t read_wts = 0;  ///< wts observed when the RMW read it
    std::vector<std::byte> buf;
  };

  write_rec* find_write(table_id_t table, key_t key) {
    for (auto& w : writes_) {
      if (w.table == table && w.key == key && w.op != txn::op_kind::erase) {
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

  std::pair<std::uint64_t, std::uint64_t> stable_copy(
      table_id_t table, storage::row_id_t rid, std::vector<std::byte>& out) {
    auto& tab = db_.at(table);
    auto& meta = tab.meta(rid);
    const auto row = tab.row(rid);
    out.resize(row.size());
    common::backoff bo;
    while (true) {
      const std::uint64_t v1 = meta.word1.load(std::memory_order_acquire);
      if ((v1 & kLockBit) == 0) {
        const std::uint64_t rts = meta.word2.load(std::memory_order_acquire);
        seqlock_load(out, row);
        std::atomic_thread_fence(std::memory_order_acquire);
        const std::uint64_t v2 = meta.word1.load(std::memory_order_acquire);
        if (v1 == v2) return {v1 & kWtsMask, rts};
      }
      bo.spin();
    }
  }

  /// Lock and verify the version we buffered is still current — a stale
  /// RMW must retry, otherwise we would overwrite a concurrent update.
  bool lock_row(write_rec& w) {
    auto& word = db_.at(w.table).meta(w.rid).word1;
    std::uint64_t cur = word.load(std::memory_order_acquire);
    while (true) {
      if ((cur & kLockBit) != 0) return false;
      if ((cur & kWtsMask) != w.read_wts) return false;
      if (word.compare_exchange_weak(cur, cur | kLockBit,
                                     std::memory_order_acq_rel)) {
        w.locked = true;
        return true;
      }
    }
  }

  void unlock_all() {
    for (auto& w : writes_) {
      if (w.locked) {
        db_.at(w.table).meta(w.rid).word1.fetch_and(
            kWtsMask, std::memory_order_release);
        w.locked = false;
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

std::unique_ptr<worker_ctx> tictoc_engine::make_worker(unsigned) {
  return std::make_unique<tictoc_ctx>(db_);
}

}  // namespace quecc::proto
