// Multi-version timestamp ordering (MVTO).
//
// Stands in for the multi-version baselines of Table 2 row 3 (Cicada,
// ERMIA, FOEDUS), which are not ported: those systems' contention
// behaviour (timestamped version chains, read-rule and
// write-rule aborts) is what drives the paper's comparison, and MVTO
// exercises exactly that machinery.
//
// Versions live in a sidecar store (per-row chains under a per-row latch).
// Reads return the newest committed version with wts <= ts and raise the
// row's read timestamp; writes abort when they arrive "too late" (a later
// read or write already observed the row). The newest committed version is
// mirrored into the base table row at commit so the database's logical
// state stays inspectable by the shared test harness.
#pragma once

#include "protocols/nd_base.hpp"

namespace quecc::proto {

class mvto_engine final : public nd_engine_base {
 public:
  mvto_engine(storage::database& db, const common::config& cfg);

 protected:
  std::unique_ptr<worker_ctx> make_worker(unsigned w) override;

 public:
  /// Sidecar version-chain storage; public so the worker context (an
  /// implementation detail in the .cpp) can name it.
  class version_store;

 private:
  std::shared_ptr<version_store> store_;
  std::atomic<std::uint64_t> ts_source_{1};
};

}  // namespace quecc::proto
