// The queue-oriented transaction processing engine (paper Figure 1): the
// shared stage machine (core/stage_driver.hpp) with no engine-specific
// hooks — one process, one node, planners and executors on local queues.
#pragma once

#include "core/stage_driver.hpp"
#include "protocols/iface.hpp"

namespace quecc::core {

class quecc_engine final : public proto::engine {
 public:
  /// `db` must outlive the engine and be fully loaded: under read-committed
  /// isolation the committed-version store snapshots it here.
  quecc_engine(storage::database& db, const common::config& cfg)
      : driver_(db, cfg, "quecc") {}

  const char* name() const noexcept override { return "quecc"; }
  void run_batch(txn::batch& b, common::run_metrics& m) override {
    driver_.run_batch(b, m);
  }
  void submit_batch(txn::batch& b, common::run_metrics& m) override {
    driver_.submit_batch(b, m);
  }
  bool drain_batch() override { return driver_.drain_batch(); }
  std::uint32_t pipeline_depth() const noexcept override {
    return driver_.pipeline_depth();
  }
  void sync_durable() override { driver_.sync_durable(); }

  log::log_writer* wal() const noexcept { return driver_.wal(); }
  const recovery_stats& last_recovery() const noexcept {
    return driver_.last_recovery();
  }
  const phase_stats& last_phases() const noexcept {
    return driver_.last_phases();
  }

 private:
  stage_driver driver_;
};

}  // namespace quecc::core
