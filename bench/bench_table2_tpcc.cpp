// Experiment T2-R3 — Table 2, row 3 of the paper.
//
//   "Centralized (non-deterministic) baselines: Cicada, TicToc, FOEDUS,
//    ERMIA, Silo, 2PL-NoWait — QueCC achieves 3x on high-contention TPC-C
//    (1 warehouse)."
//
// One warehouse means every NewOrder serializes on 10 district rows and
// every Payment on the warehouse row: the abort-and-retry loops of the
// classical protocols burn throughput exactly where the queue-oriented
// engine's conflict queues keep executing. MVTO stands in for the
// multi-version baselines (Cicada/ERMIA/FOEDUS), which are not ported (see
// protocols/mvto.hpp).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "workload/tpcc.hpp"

int main() {
  using namespace quecc;
  const harness::run_options s = benchutil::scaled(6, 1024);
  benchutil::json_report report("table2_tpcc");

  std::printf(
      "== Table 2 / row 3: QueCC vs non-deterministic protocols, TPC-C ==\n"
      "batches=%u batch=%u warehouses=1 (high contention)\n\n",
      s.batches, s.batch_size);

  auto make = [&]() -> std::unique_ptr<wl::workload> {
    wl::tpcc_config w;
    w.warehouses = 1;
    w.partitions = 4;
    w.initial_orders_per_district = 100;
    w.order_headroom_per_district =
        s.batches * s.batch_size / 10 + 2000;
    return std::make_unique<wl::tpcc>(w);
  };

  harness::table_printer table(
      {"protocol", "throughput", "user aborts", "cc aborts/retries",
       "p99 exec latency"});

  double best_nd = 0, best_quecc = 0;
  auto run_row = [&](const std::string& label, const char* engine,
                     const common::config& cfg) {
    const auto m = benchutil::run_engine(engine, cfg, make, s);
    report.add(label, {{"warehouses", 1}}, m);
    if (label.rfind("quecc", 0) == 0) {
      best_quecc = std::max(best_quecc, m.throughput());
    } else if (label != "serial") {
      best_nd = std::max(best_nd, m.throughput());
    }
    char p99[64];
    std::snprintf(p99, sizeof p99, "%.0fus",
                  m.txn_latency.percentile_nanos(99) / 1e3);
    table.row({label, harness::format_rate(m.throughput()),
               std::to_string(m.aborted), std::to_string(m.cc_aborts),
               p99});
  };

  // The queue-oriented engine under both execution mechanisms, and at the
  // geometry that fits this machine's core budget (cross-executor
  // dependency waits are busy-waits; they need real cores to overlap — see
  // EXPERIMENTS.md). TPC-C NewOrder carries abortable item checks, which
  // is conservative execution's home turf.
  common::config cfg;
  cfg.worker_threads = 4;
  cfg.partitions = 4;
  cfg.planner_threads = 1;
  cfg.executor_threads = 1;
  cfg.execution = common::exec_model::conservative;
  run_row("quecc (cons 1x1)", "quecc", cfg);
  cfg.planner_threads = 2;
  cfg.executor_threads = 2;
  run_row("quecc (cons 2x2)", "quecc", cfg);
  cfg.execution = common::exec_model::speculative;
  run_row("quecc (spec 2x2)", "quecc", cfg);

  cfg.execution = common::exec_model::speculative;
  for (const char* name :
       {"silo", "tictoc", "mvto", "2pl-nowait", "2pl-waitdie", "serial"}) {
    run_row(name, name, cfg);
  }
  table.print();
  std::printf(
      "\nbest quecc vs best non-deterministic protocol: %s\n"
      "paper claim: ~3x over the best classical protocol at 1 warehouse\n"
      "(measured on 2x24-core hardware; this host's 2 cores compress the\n"
      "gap — the classical protocols see little physical concurrency, so\n"
      "their abort/retry machinery is rarely triggered).\n",
      harness::format_factor(best_quecc / std::max(1.0, best_nd)).c_str());
  const std::string json = report.write();
  if (!json.empty()) std::printf("json report: %s\n", json.c_str());
  return 0;
}
