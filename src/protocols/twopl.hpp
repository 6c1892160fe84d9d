// Two-phase locking baselines.
//
//  * 2PL-NoWait — shared/exclusive row latches; any conflict aborts the
//    requester immediately (deadlock-free by construction). This is the
//    exact baseline named in Table 2 row 3 of the paper.
//  * 2PL-WaitDie — exclusive-only port: older transactions (smaller
//    timestamp) wait for the holder, younger ones die and retry with the
//    same timestamp. Exclusive-only keeps the holder timestamp unambiguous,
//    at the price of serializing readers of a hot row.
//
// Lock state lives in row_meta.word1 (bit 63 = exclusive, low bits =
// shared count) and word2 (holder timestamp, wait-die only).
#pragma once

#include "protocols/nd_base.hpp"

namespace quecc::proto {

enum class twopl_variant { no_wait, wait_die };

class twopl_engine final : public nd_engine_base {
 public:
  twopl_engine(storage::database& db, const common::config& cfg,
               twopl_variant variant);

 protected:
  std::unique_ptr<worker_ctx> make_worker(unsigned w) override;

 private:
  twopl_variant variant_;
  std::atomic<std::uint64_t> ts_source_{1};  ///< wait-die timestamps
};

}  // namespace quecc::proto
