// queccctl: command-line driver for ad-hoc experiments.
//
//   queccctl [--engine NAME] [--workload ycsb|tpcc|bank] [--batches N]
//            [--batch-size N] [--planners N] [--executors N] [--workers N]
//            [--pipeline-depth N] [--partitions N] [--nodes N] [--theta F]
//            [--read-ratio F] [--mp-ratio F] [--warehouses N]
//            [--index hash|ordered] [--tpcc-full] [--scan-ratio F]
//            [--exec spec|cons] [--iso ser|rc] [--seed N] [--latency-us N]
//            [--arrival-rate TPS] [--batch-deadline-us N]
//            [--log-dir DIR] [--durable] [--recover]
//            [--checkpoint-every N] [--group-commit-us N] [--list]
//            [--metrics-json[=FILE]] [--trace-out=FILE]
//            [--stage3 on|off] [--pin-threads] [--pin-policy POLICY]
//            [--numa] [--verbose]
//
// Observability: --metrics-json dumps the run summary plus the full obs
// registry scrape (counters/gauges/histograms, src/obs/metrics.hpp) as one
// JSON document — to stdout, or to FILE with --metrics-json=FILE.
// --trace-out=FILE enables span tracing for the run and writes a Chrome
// trace-event file (load it in chrome://tracing or https://ui.perfetto.dev)
// with one lane per recording thread; at --pipeline-depth >= 2 the
// plan(i+1)/exec(i) overlap is directly visible as overlapping spans.
//
// --arrival-rate TPS switches from closed-loop batch replay to the
// open-loop client path: batches*batch-size transactions arrive as a
// Poisson process at TPS and flow through a proto::session (admission
// queue + batch former), so the summary reports queueing and end-to-end
// latency measured from submit time. --batch-deadline-us bounds how long
// a partial batch may wait before it closes (default 2000).
//
// --pipeline-depth N sets how many batches the queue-oriented engines keep
// in flight (1 = the paper's lockstep; default 2 overlaps batch i+1's
// planning with batch i's execution). Results are identical at any depth.
// --stage3 on|off toggles the third pipeline stage (async commit epilogue:
// the durable tail of batch i overlaps batch i+1's execution; on by
// default, effective at depth >= 2). Results are identical either way.
//
// Placement: --pin-threads pins planners/executors/epilogue to CPUs
// following --pin-policy (compact = a partition's executor shares the
// socket of its arena, spread = executors round-robin across NUMA nodes,
// none = legacy raw-index pinning). --numa additionally mbinds each
// storage arena's pages onto the socket of the executor owning it
// (best-effort; no-op on single-node machines). --verbose prints the
// machine topology, the resolved thread->cpu / arena->node map, and the
// storage catalog (per-table index backend and shard count).
//
// Storage: --index hash|ordered selects the index backend for every
// workload table (hash = point lookups only; ordered = per-arena skip
// list supporting range scans). --tpcc-full switches TPC-C to the full
// scan-based 5-txn mix (OrderStatus and StockLevel execute genuine
// ordered range scans; implies ordered ORDER-LINE). --scan-ratio F makes
// that fraction of YCSB transactions YCSB-E style range scans (implies
// an ordered usertable).
//
// Durability: --durable --log-dir DIR command-logs
// every planned batch and fsyncs a commit record per batch (group commit,
// --group-commit-us window); --checkpoint-every N snapshots the database
// every N batches and truncates the log. After a crash (SIGKILL included),
// `queccctl --recover --log-dir DIR` with the *same* workload flags
// restores the checkpoint, replays committed batches, then resumes the
// remainder of the deterministic stream *durably in place*: the log is
// reopened at the replayed position and every resumed batch keeps being
// command-logged, so a later crash + --recover still works. The final
// state hash equals what an uninterrupted run would have printed.
//
// Examples:
//   queccctl --engine quecc --workload tpcc --warehouses 1
//   queccctl --engine dist-quecc --nodes 4 --mp-ratio 0.2
//   queccctl --engine quecc --arrival-rate 50000 --batch-deadline-us 500
//   queccctl --durable --log-dir /tmp/qlog --checkpoint-every 8
//   queccctl --recover --log-dir /tmp/qlog
//   queccctl --list
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/topology.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "log/recovery.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/iface.hpp"
#include "workload/bank.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

using namespace quecc;

namespace {

struct options {
  std::string engine = "quecc";
  std::string workload = "ycsb";
  std::uint32_t batches = 4;
  std::uint32_t batch_size = 2048;
  common::config cfg;
  double theta = 0.5;
  double read_ratio = 0.5;
  double mp_ratio = 0.0;
  std::uint32_t warehouses = 1;
  storage::index_kind index = storage::index_kind::hash;
  bool tpcc_full = false;   ///< full scan-based 5-txn TPC-C mix
  double scan_ratio = 0.0;  ///< YCSB-E style scan transaction fraction
  std::uint64_t seed = 42;
  double arrival_rate = 0.0;  ///< txn/s; > 0 selects the open-loop path
  bool recover = false;       ///< recover from cfg.log_dir, then resume
  bool verbose = false;       ///< print topology + placement map at start
  std::string metrics_json;   ///< "-" = stdout; empty = disabled
  std::string trace_out;      ///< Chrome trace file; empty = disabled
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--engine NAME] [--workload ycsb|tpcc|bank] ...\n"
               "run '%s --list' for engine names; see file header for all "
               "flags.\n",
               argv0, argv0);
  std::exit(2);
}

bool parse(options& o, int argc, char** argv) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      for (const auto& n : proto::engine_names()) std::printf("%s\n", n.c_str());
      return false;
    } else if (a == "--engine") {
      o.engine = need(i);
    } else if (a == "--workload") {
      o.workload = need(i);
    } else if (a == "--batches") {
      o.batches = static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--batch-size") {
      o.batch_size = static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--planners") {
      o.cfg.planner_threads = static_cast<worker_id_t>(std::atoi(need(i)));
    } else if (a == "--executors") {
      o.cfg.executor_threads = static_cast<worker_id_t>(std::atoi(need(i)));
    } else if (a == "--workers") {
      o.cfg.worker_threads = static_cast<worker_id_t>(std::atoi(need(i)));
    } else if (a == "--pipeline-depth") {
      o.cfg.pipeline_depth = static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--stage3") {
      const std::string v = need(i);
      if (v != "on" && v != "off") usage(argv[0]);
      o.cfg.async_epilogue = v == "on";
    } else if (a == "--pin-threads") {
      o.cfg.pin_threads = true;
    } else if (a == "--pin-policy") {
      const std::string v = need(i);
      if (v == "none") {
        o.cfg.pin_mode = common::pin_policy::none;
      } else if (v == "compact") {
        o.cfg.pin_mode = common::pin_policy::compact;
      } else if (v == "spread") {
        o.cfg.pin_mode = common::pin_policy::spread;
      } else {
        usage(argv[0]);
      }
    } else if (a == "--numa") {
      o.cfg.numa_bind = true;
    } else if (a == "--verbose") {
      o.verbose = true;
    } else if (a == "--partitions") {
      o.cfg.partitions = static_cast<part_id_t>(std::atoi(need(i)));
    } else if (a == "--nodes") {
      o.cfg.nodes = static_cast<std::uint16_t>(std::atoi(need(i)));
    } else if (a == "--latency-us") {
      o.cfg.net_latency_micros =
          static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--arrival-rate") {
      o.arrival_rate = std::atof(need(i));
    } else if (a == "--batch-deadline-us") {
      o.cfg.batch_deadline_micros =
          static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--log-dir") {
      o.cfg.log_dir = need(i);
    } else if (a == "--durable") {
      o.cfg.durable = true;
    } else if (a == "--recover") {
      o.recover = true;
    } else if (a == "--checkpoint-every") {
      o.cfg.checkpoint_interval_batches =
          static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--group-commit-us") {
      o.cfg.group_commit_micros =
          static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--metrics-json") {
      o.metrics_json = "-";
    } else if (a.rfind("--metrics-json=", 0) == 0) {
      o.metrics_json = a.substr(std::strlen("--metrics-json="));
    } else if (a == "--trace-out") {
      o.trace_out = need(i);
    } else if (a.rfind("--trace-out=", 0) == 0) {
      o.trace_out = a.substr(std::strlen("--trace-out="));
    } else if (a == "--theta") {
      o.theta = std::atof(need(i));
    } else if (a == "--read-ratio") {
      o.read_ratio = std::atof(need(i));
    } else if (a == "--mp-ratio") {
      o.mp_ratio = std::atof(need(i));
    } else if (a == "--warehouses") {
      o.warehouses = static_cast<std::uint32_t>(std::atoi(need(i)));
    } else if (a == "--index") {
      const std::string v = need(i);
      if (v == "hash") {
        o.index = storage::index_kind::hash;
      } else if (v == "ordered") {
        o.index = storage::index_kind::ordered;
      } else {
        usage(argv[0]);
      }
    } else if (a == "--tpcc-full") {
      o.tpcc_full = true;
    } else if (a == "--scan-ratio") {
      o.scan_ratio = std::atof(need(i));
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(std::atoll(need(i)));
    } else if (a == "--exec") {
      const std::string v = need(i);
      o.cfg.execution = v == "cons" ? common::exec_model::conservative
                                    : common::exec_model::speculative;
    } else if (a == "--iso") {
      const std::string v = need(i);
      o.cfg.iso = v == "rc" ? common::isolation::read_committed
                            : common::isolation::serializable;
    } else {
      usage(argv[0]);
    }
  }
  return true;
}

std::unique_ptr<wl::workload> make_workload(const options& o) {
  if (o.workload == "ycsb") {
    wl::ycsb_config w;
    w.table_size = 1 << 16;
    w.partitions = o.cfg.partitions;
    w.zipf_theta = o.theta;
    w.read_ratio = o.read_ratio;
    w.multi_partition_ratio = o.mp_ratio;
    w.scan_ratio = o.scan_ratio;
    w.index = o.index;
    return std::make_unique<wl::ycsb>(w);
  }
  if (o.workload == "tpcc") {
    wl::tpcc_config w;
    w.warehouses = o.warehouses;
    w.partitions = o.cfg.partitions;
    w.order_headroom_per_district =
        o.batches * o.batch_size / 10 + 2000;
    w.scan_profiles = o.tpcc_full;
    w.index = o.index;
    return std::make_unique<wl::tpcc>(w);
  }
  if (o.workload == "bank") {
    wl::bank_config w;
    w.partitions = o.cfg.partitions;
    return std::make_unique<wl::bank>(w);
  }
  std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
  std::exit(2);
}

// One JSON document: the run configuration, the run's metrics, and the
// full obs registry scrape (counters/gauges/histograms).
void write_metrics_doc(std::ostream& os, const options& o,
                       const common::run_metrics& m, std::uint64_t hash) {
  obs::json_writer w(os);
  w.begin_object();
  w.kv("schema", "quecc-metrics-v1");
  w.kv("engine", o.engine);
  w.kv("workload", o.workload);
  w.kv("batches", o.batches);
  w.kv("batch_size", o.batch_size);
  w.kv("pipeline_depth", o.cfg.pipeline_depth);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  w.kv("state_hash", buf);
  w.key("run");
  harness::write_run_metrics_json(w, m);
  obs::write_metrics_sections(w);
  w.end_object();
  os << '\n';
}

// Human-readable report lines move to stderr when the metrics document
// owns stdout, so `--metrics-json | jq` style pipes see pure JSON.
FILE* report_stream(const options& o) {
  return o.metrics_json == "-" ? stderr : stdout;
}

// --verbose: machine topology plus the thread->cpu / arena->node map the
// engine will apply (computed here exactly as the engine computes it).
void print_placement(const options& o) {
  FILE* out = report_stream(o);
  const common::topology& topo = common::system_topology();
  std::fprintf(out, "topology: %zu node(s), %zu cpu(s)\n", topo.nodes.size(),
               topo.cpu_count());
  common::placement_spec spec;
  spec.planners = o.cfg.planner_threads;
  spec.executors = o.cfg.executor_threads;
  spec.policy = o.cfg.pin_mode;
  const common::placement_plan plan = common::compute_placement(topo, spec);
  std::fprintf(out, "%s", plan.describe(o.cfg.partitions).c_str());
  if (!o.cfg.pin_threads) {
    std::fprintf(out, "(placement shown but not applied: --pin-threads off)\n");
  }
}

// --verbose: per-table index backend as loaded — the catalog's view of the
// storage seam, so a run's scan capability is visible up front.
void print_catalog(const options& o, const storage::database& db) {
  FILE* out = report_stream(o);
  std::fprintf(out, "catalog: %zu table(s)\n",
               static_cast<std::size_t>(db.table_count()));
  for (table_id_t id = 0; id < db.table_count(); ++id) {
    const storage::table& t = db.at(id);
    std::uint64_t rows = 0;
    for (part_id_t s = 0; s < t.shard_count(); ++s) rows += t.live_rows_in(s);
    std::fprintf(out, "  %-12s index=%-8s shards=%-3u rows=%" PRIu64 "\n",
                 t.name().c_str(), storage::index_kind_name(t.index()),
                 t.shard_count(), rows);
  }
}

// --metrics-json / --trace-out emission after a run (normal or recovery).
int emit_observability(const options& o, const common::run_metrics& m,
                       std::uint64_t hash) {
  if (!o.metrics_json.empty()) {
    if (o.metrics_json == "-") {
      write_metrics_doc(std::cout, o, m, hash);
    } else {
      std::ofstream out(o.metrics_json);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", o.metrics_json.c_str());
        return 1;
      }
      write_metrics_doc(out, o, m, hash);
    }
  }
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
    obs::write_chrome_trace(out);
    std::fprintf(stderr, "trace written: %s (chrome://tracing, perfetto)\n",
                 o.trace_out.c_str());
  }
  return 0;
}

// Recover from o.cfg.log_dir, resume the remainder of the deterministic
// stream, and print the final state hash — identical to what an
// uninterrupted run with the same flags would have printed.
int run_recovery(options& o) {
  auto w = make_workload(o);
  storage::database db;
  w->load(db);
  if (o.verbose) print_catalog(o, db);

  // Replay must go through a non-durable engine: a durable one would
  // append the log to itself (and log_writer refuses a dirty directory).
  common::config replay_cfg = o.cfg;
  replay_cfg.durable = false;
  std::unique_ptr<proto::engine> eng;
  try {
    eng = proto::make_engine(o.engine, db, replay_cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  log::recovery_result rec;
  try {
    rec = log::recover(o.cfg.log_dir, db, *eng, log::resolver_for(*w));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recovery failed: %s\n", e.what());
    return 1;
  }
  std::fprintf(
      report_stream(o),
      "recovered: checkpoint=%s replayed=%u skipped=%u torn_tail=%s "
      "txns=%" PRIu64 "\n",
      rec.checkpoint_loaded ? "yes" : "no", rec.batches_replayed,
      rec.batches_skipped, rec.torn_tail ? "yes" : "no", rec.txns_applied);

  // The replay engine's threads are torn down before the resumed engine
  // reopens the log (log_writer is single-writer per directory).
  eng.reset();

  // Resume durably in place: reopen the log at the replayed position
  // (resume mode truncates the torn tail and appends into a fresh
  // segment) and keep command-logging the remainder of the deterministic
  // stream, so a later crash + --recover still works. Engines without a
  // durability layer ignore the knobs and resume in memory as before.
  common::config resume_cfg = o.cfg;
  resume_cfg.durable = true;
  resume_cfg.log_resume = true;
  resume_cfg.log_resume_stream_pos = rec.txns_applied;
  std::unique_ptr<proto::engine> resumed;
  try {
    resumed = proto::make_engine(o.engine, db, resume_cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const std::uint64_t total =
      static_cast<std::uint64_t>(o.batches) * o.batch_size;
  common::rng r(o.seed);
  for (std::uint64_t i = 0; i < rec.txns_applied && i < total; ++i) {
    (void)w->make_txn(r);  // consume: generator state must advance
  }
  common::run_metrics m;
  std::uint32_t next_id = rec.next_batch_id;
  for (std::uint64_t done = rec.txns_applied; done < total;) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(o.batch_size, total - done));
    txn::batch b = w->make_batch(r, n, next_id++);
    resumed->run_batch(b, m);
    done += n;
  }
  resumed->sync_durable();
  if (total > rec.txns_applied) {
    std::fprintf(report_stream(o), "resumed durably: %" PRIu64 " remaining txns\n",
                 total - rec.txns_applied);
  }
  std::fprintf(report_stream(o), "state hash: %016llx\n",
               static_cast<unsigned long long>(db.state_hash()));
  return emit_observability(o, m, db.state_hash());
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  if (!parse(o, argc, argv)) return 0;

  // Enable span recording before any engine thread spins up so the whole
  // run (recovery replay included) lands in the trace.
  if (!o.trace_out.empty()) obs::set_tracing_enabled(true);

  if (o.verbose) print_placement(o);

  if (o.recover) {
    if (o.cfg.log_dir.empty()) {
      std::fprintf(stderr, "--recover requires --log-dir\n");
      return 2;
    }
    return run_recovery(o);
  }

  auto w = make_workload(o);
  storage::database db;
  w->load(db);
  if (o.verbose) print_catalog(o, db);

  std::unique_ptr<proto::engine> eng;
  try {
    eng = proto::make_engine(o.engine, db, o.cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::fprintf(report_stream(o), "engine=%s workload=%s batches=%u batch=%u %s\n",
               o.engine.c_str(), o.workload.c_str(), o.batches, o.batch_size,
               o.cfg.describe().c_str());

  harness::run_options opts;
  opts.batches = o.batches;
  opts.batch_size = o.batch_size;
  opts.seed = o.seed;
  opts.batch_deadline_micros = o.cfg.batch_deadline_micros;
  opts.admission_capacity = o.cfg.admission_capacity;
  opts.durability = o.cfg.durable;
  if (o.arrival_rate > 0) {
    opts.mode = harness::arrival_mode::open_loop;
    opts.offered_load_tps = o.arrival_rate;
    std::fprintf(report_stream(o), "open loop: %" PRIu64 " txns offered at %.0f txn/s\n",
                 opts.total_txns(), o.arrival_rate);
  }
  const auto res = harness::run_workload(*eng, *w, db, opts);
  std::fprintf(report_stream(o), "%s\n", res.metrics.summary(o.engine).c_str());
  std::fprintf(report_stream(o), "state hash: %016llx\n",
               static_cast<unsigned long long>(res.final_state_hash));
  // Engine teardown first: exporters are quiescent-point operations, and
  // the trace should include the final batches' epilogue spans.
  eng.reset();
  return emit_observability(o, res.metrics, res.final_state_hash);
}
