#include "core/spec_manager.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/stats.hpp"
#include "protocols/local_host.hpp"
#include "txn/procedure.hpp"

namespace quecc::core {

namespace {

/// Group (seq, value) pairs by seq < n into CSR arrays: seq s owns
/// vals[off[s], off[s+1]), in input order (a counting sort).
void group_by_seq(const std::vector<std::pair<seq_t, std::uint32_t>>& pairs,
                  std::size_t n, std::vector<std::uint32_t>& off,
                  std::vector<std::uint32_t>& vals) {
  off.assign(n + 1, 0);
  for (const auto& p : pairs) ++off[p.first + 1];
  for (std::size_t i = 0; i < n; ++i) off[i + 1] += off[i];
  vals.resize(pairs.size());
  for (const auto& [s, v] : pairs) vals[off[s]++] = v;
  // off[s] now ends bucket s; shift to bucket starts.
  for (std::size_t i = n; i > 0; --i) off[i] = off[i - 1];
  off[0] = 0;
}

/// Walk every log's undo entries newest-first, undoing those whose seq
/// `pick` selects. A record's entries live in one log in sequence order,
/// so this undoes each record's selected entries newest-first; distinct
/// logs touch distinct records, and the fixed log order fixes the order
/// slots return to the free lists.
template <typename Pick>
void rollback(storage::database& db, std::span<exec_logs* const> logs,
              Pick pick) {
  for (const exec_logs* log : logs) {
    const auto& entries = log->undo.entries;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (pick(it->seq)) undo(db, log->undo, *it);
    }
  }
}

}  // namespace

/// LSD radix sort by (table, key, seq), one byte per pass, least
/// significant first. One read pass histograms every byte; bytes on which
/// all entries agree get no pass. Stable, and a pure function of the input.
void spec_manager::radix_sort(std::vector<access>& v,
                              std::vector<access>& tmp) {
  // The 112-bit sort key as two words: lo = key[31:0] . seq,
  // hi = table . key[63:32].
  const auto lo = [](const access& a) {
    return (a.key << 32) | a.seq;
  };
  const auto hi = [](const access& a) {
    return (static_cast<std::uint64_t>(a.table) << 32) | (a.key >> 32);
  };
  constexpr int kBytes = 14;
  std::array<std::array<std::uint32_t, 256>, kBytes> count{};
  for (const access& a : v) {
    const std::uint64_t l = lo(a);
    const std::uint64_t h = hi(a);
    for (int d = 0; d < 8; ++d) ++count[d][(l >> (8 * d)) & 0xff];
    for (int d = 8; d < kBytes; ++d) ++count[d][(h >> (8 * (d - 8))) & 0xff];
  }
  tmp.resize(v.size());
  for (int d = 0; d < kBytes; ++d) {
    auto& c = count[d];
    if (std::find(c.begin(), c.end(), v.size()) != c.end()) continue;
    std::uint32_t sum = 0;
    for (auto& x : c) sum += std::exchange(x, sum);  // bucket starts
    const int shift = 8 * (d < 8 ? d : d - 8);
    for (const access& a : v) {
      const std::uint64_t w = d < 8 ? lo(a) : hi(a);
      tmp[c[(w >> shift) & 0xff]++] = a;
    }
    v.swap(tmp);
  }
}

std::uint32_t spec_manager::lower_record(table_id_t table,
                                         key_t key) const noexcept {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), record{key, table},
      [](const record& a, const record& b) {
        return a.table != b.table ? a.table < b.table : a.key < b.key;
      });
  return static_cast<std::uint32_t>(it - records_.begin());
}

std::uint32_t spec_manager::find_record(table_id_t table,
                                        key_t key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t h = record_hash(table, key) & mask;; h = (h + 1) & mask) {
    const std::uint32_t r = slots_[h];
    if (r == kNoRecord ||
        (records_[r].key == key && records_[r].table == table)) {
      return r;
    }
  }
}

std::uint32_t spec_manager::build_index(std::span<exec_logs* const> logs,
                                        std::size_t n) {
  accesses_.clear();
  ranges_.clear();
  for (std::size_t l = 0; l < logs.size(); ++l) {
    for (const auto& r : logs[l]->reads) {
      if (r.hi != 0) {
        ranges_.push_back(r);
      } else {
        accesses_.push_back({r.key, r.seq, r.table, kReadOnly});
      }
    }
    for (const auto& u : logs[l]->undo.entries) {
      accesses_.push_back({u.key, u.seq, u.table,
                           static_cast<std::uint16_t>(l)});
    }
  }
  radix_sort(accesses_, scratch_);

  records_.clear();
  acc_off_.clear();
  acc_seq_.clear();
  wr_off_.clear();
  wr_seq_.clear();
  pairs_.clear();
  std::uint32_t split = 0;
  std::uint16_t rec_log = kReadOnly;
  bool rec_split = false;
  for (std::size_t i = 0; i < accesses_.size(); ++i) {
    const access& e = accesses_[i];
    if (records_.empty() || records_.back().table != e.table ||
        records_.back().key != e.key) {
      records_.push_back({e.key, e.table});
      acc_off_.push_back(static_cast<std::uint32_t>(acc_seq_.size()));
      wr_off_.push_back(static_cast<std::uint32_t>(wr_seq_.size()));
      rec_log = kReadOnly;
      rec_split = false;
    }
    if (acc_seq_.size() == acc_off_.back() || acc_seq_.back() != e.seq) {
      acc_seq_.push_back(e.seq);
    }
    if (e.log == kReadOnly) continue;
    if (wr_seq_.size() == wr_off_.back() || wr_seq_.back() != e.seq) {
      wr_seq_.push_back(e.seq);
      pairs_.emplace_back(e.seq,
                          static_cast<std::uint32_t>(records_.size() - 1));
    }
    if (rec_log == kReadOnly) {
      rec_log = e.log;
    } else if (rec_log != e.log && !rec_split) {
      rec_split = true;
      ++split;
    }
  }
  acc_off_.push_back(static_cast<std::uint32_t>(acc_seq_.size()));
  wr_off_.push_back(static_cast<std::uint32_t>(wr_seq_.size()));
  group_by_seq(pairs_, n, wrote_off_, wrote_rec_);

  // Load factor <= 1/2, so probes stay short and always hit an empty slot.
  slots_.assign(std::bit_ceil(2 * records_.size() + 2), kNoRecord);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t r = 0; r < records_.size(); ++r) {
    std::size_t h = record_hash(records_[r].table, records_[r].key) & mask;
    while (slots_[h] != kNoRecord) h = (h + 1) & mask;
    slots_[h] = r;
  }

  // Writer -> scan edges for edge (a) over ranges: a scan whose logged
  // interval covers a key written earlier in the batch depends on that
  // writer. Phantoms are covered: the interval holds keys the scan never
  // saw.
  pairs_.clear();
  for (const read_entry& rr : ranges_) {
    for (std::uint32_t r = lower_record(rr.table, rr.key);
         r < records_.size() && records_[r].table == rr.table &&
         records_[r].key < rr.hi;
         ++r) {
      for (std::uint32_t i = wr_off_[r];
           i < wr_off_[r + 1] && wr_seq_[i] < rr.seq; ++i) {
        pairs_.emplace_back(wr_seq_[i], rr.seq);
      }
    }
  }
  group_by_seq(pairs_, n, scan_off_, scan_seq_);
  return split;
}

recovery_stats spec_manager::recover(
    txn::batch& b, std::span<exec_logs* const> logs,
    const storage::dual_version_store* committed) {
  recovery_stats stats;
  extra_dirty_.clear();

  // --- 0. collect run-time logic aborts -----------------------------------
  // Aborts decided at plan time queued no fragment: they read and wrote
  // nothing, so they seed nothing (and no edge can reach them).
  const std::size_t n = b.size();
  affected_.assign(n, 0);
  worklist_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (b.at(i).aborted() && !b.at(i).aborted_at_plan()) {
      affected_[i] = 1;
      worklist_.push_back(static_cast<seq_t>(i));
      ++stats.logic_aborts;
    }
  }
  if (worklist_.empty()) return stats;
  const std::uint64_t t0 = common::now_nanos();

  // --- 1. dependency index -------------------------------------------------
  stats.split_records = build_index(logs, n);
  const std::uint64_t t1 = common::now_nanos();

  // --- 2. watermarked taint closure ---------------------------------------
  const auto taint = [&](seq_t s) {
    if (!affected_[s]) {
      affected_[s] = 1;
      ++stats.cascades;
      worklist_.push_back(s);
    }
  };
  // Taint every seq > t in list[begin, end); positions >= wm are already
  // tainted, so walk back from wm only while seqs exceed t.
  const auto propagate = [&](const std::vector<seq_t>& list,
                             std::uint32_t begin, std::uint32_t& wm,
                             seq_t t) {
    std::uint32_t i = wm;
    while (i > begin && list[i - 1] > t) taint(list[--i]);
    wm = i;
  };
  wm_a_.assign(acc_off_.begin() + 1, acc_off_.end());
  wm_b_.assign(wr_off_.begin() + 1, wr_off_.end());
  while (!worklist_.empty()) {
    const seq_t t = worklist_.back();
    worklist_.pop_back();
    // Edge (a): later accessors of records t actually wrote, and later
    // scans covering them.
    for (std::uint32_t i = wrote_off_[t]; i < wrote_off_[t + 1]; ++i) {
      const std::uint32_t r = wrote_rec_[i];
      propagate(acc_seq_, acc_off_[r], wm_a_[r], t);
    }
    for (std::uint32_t i = scan_off_[t]; i < scan_off_[t + 1]; ++i) {
      taint(scan_seq_[i]);
    }
    // Edge (b): later writers of every record t's fragments touch — for a
    // scan, every record inside its range, phantom inserts/erases
    // included.
    for (const auto& f : b.at(t).frags) {
      if (f.kind == txn::op_kind::scan) {
        for (std::uint32_t r = lower_record(f.table, f.key);
             r < records_.size() && records_[r].table == f.table &&
             records_[r].key < f.key_hi;
             ++r) {
          propagate(wr_seq_, wr_off_[r], wm_b_[r], t);
        }
      } else if (const std::uint32_t r = find_record(f.table, f.key);
                 r != kNoRecord) {
        propagate(wr_seq_, wr_off_[r], wm_b_[r], t);
      }
    }
  }
  const std::uint64_t t2 = common::now_nanos();

  // --- 3. rollback affected writes, newest first per log -------------------
  rollback(db_, logs, [&](seq_t s) { return affected_[s] != 0; });
  const std::uint64_t t3 = common::now_nanos();

  // --- 4. deterministic serial re-execution in sequence order -------------
  // Re-runs that logic-abort again roll themselves back inside
  // run_txn_serially, truncating their entries from pass_log_; dirty-read
  // victims now commit with clean values. pass_log_ thus holds exactly the
  // committed re-runs' effects, which escalation unwinds.
  pass_log_.clear();
  bool abort_flipped = false;
  proto::inplace_host pass(db_, &extra_dirty_, &pass_log_, committed);
  for (std::size_t i = 0; i < n; ++i) {
    if (!affected_[i]) continue;
    txn::txn_desc& t = b.at(i);
    const bool was_aborted = t.aborted();
    t.reset_runtime();
    const bool committed = proto::run_txn_serially(t, pass);
    if (was_aborted && committed) abort_flipped = true;
    ++stats.reexecuted;
  }
  const std::uint64_t t4 = common::now_nanos();
  stats.index_nanos = t1 - t0;
  stats.taint_nanos = t2 - t1;
  stats.rollback_nanos = t3 - t2;
  stats.reexec_nanos = t4 - t3;
  if (!abort_flipped) return stats;

  // --- escalation: whole-batch deterministic re-execution ------------------
  // An abort flipped into a commit: the transaction may now produce writes
  // whose original readers were never tainted. Unwind this pass, undo the
  // unaffected transactions' entries as step 3 undid the affected ones
  // (together: every entry, newest first per record — the batch-start
  // state), and replay everything serially.
  stats.full_redo = true;
  pass_log_.rollback_to(db_, 0);
  rollback(db_, logs, [&](seq_t s) { return affected_[s] == 0; });
  const std::uint64_t t5 = common::now_nanos();

  extra_dirty_.clear();
  proto::inplace_host host(db_, &extra_dirty_, nullptr, committed);
  for (auto& tp : b) {
    tp->reset_runtime();
    proto::run_txn_serially(*tp, host);
  }
  stats.reexecuted = static_cast<std::uint32_t>(n);
  stats.rollback_nanos += t5 - t4;
  stats.reexec_nanos += common::now_nanos() - t5;
  return stats;
}

}  // namespace quecc::core
