// quecc_bench: one workload of the end-to-end benchmark per process.
//
//   quecc_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--smoke] [--work-dir DIR] [--trace-out FILE]
//
// Sequence: set up (load + engine construction), drive the measured phase
// (and with --trace a traced phase), probe the planner and storage on the
// live database, then free it and check correctness: the identical stream
// replayed through the serial engine must reach the same state hash and
// the same per-transaction outcomes, and on the durable workload
// log::recover into a fresh database must reproduce the live hash. Set-up
// is repeated after the measured phase and reported as a median.
//
// Prints one JSON document on stdout; run.py turns it into the reported
// metrics. Exit status 0 only when every correctness gate passed.
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/topology.hpp"
#include "obs/json.hpp"

#ifndef QUECC_BENCH_BUILD_TYPE
#define QUECC_BENCH_BUILD_TYPE "unknown"
#endif

namespace quecc::e2e {

std::vector<std::string> workload_names() {
  return {"ycsb-hot", "tpcc-full-spec", "tpcc-full-cons", "ycsb-durable-100k"};
}

workload_spec make_spec(const options& o) {
  workload_spec s;
  s.name = o.workload;
  // Engine geometry of every workload: 2 planners and 2 executors over 4
  // partitions; everything else keeps the shipped defaults (pipeline
  // depth 2, third pipeline stage on, no pinning).
  s.cfg.planner_threads = 2;
  s.cfg.executor_threads = 2;
  s.cfg.partitions = 4;
  s.batch_size = o.smoke ? 1024 : 8192;
  s.traced_seconds = o.smoke ? 0.5 : std::max(1.0, o.seconds / 4);

  const auto ycsb = [&](std::uint64_t rows, double theta) {
    s.gen = generator::ycsb;
    s.ycsb.table_size = rows;
    s.ycsb.ops_per_txn = 10;
    s.ycsb.read_ratio = 0.5;
    s.ycsb.rmw = true;
    s.ycsb.zipf_theta = theta;
    s.ycsb.partitions = s.cfg.partitions;
    s.ycsb.index = storage::index_kind::hash;
  };

  if (s.name == "ycsb-hot") {
    // 2^20 rows (~100 MB) fit the 300 MB last-level cache; theta 0.9 is hot.
    ycsb(o.smoke ? 1u << 16 : 1u << 20, 0.9);
    s.cfg.execution = common::exec_model::speculative;
    s.chunk_batches = o.smoke ? 2 : 8;
  } else if (s.name == "tpcc-full-spec" || s.name == "tpcc-full-cons") {
    const bool spec = s.name == "tpcc-full-spec";
    s.gen = generator::tpcc;
    s.tpcc.warehouses = o.smoke ? 1 : 4;
    s.tpcc.partitions = s.cfg.partitions;
    s.tpcc.scan_profiles = true;  // full 5-txn mix, ORDER-LINE ordered
    s.cfg.execution = spec ? common::exec_model::speculative
                           : common::exec_model::conservative;
    s.chunk_batches = 2;
    // Every inserted order stays resident, so the stream length sets the
    // run's memory: fixed work keeps it the same on every run, near 1 GB.
    s.work_rate = spec ? 24'000 : 40'000;
    const double chunk = static_cast<double>(s.chunk_batches) * s.batch_size;
    const double stream =
        chunk +  // warm-up
        std::max(s.work_rate * o.seconds, kMinMeasuredChunks * chunk) +
        std::max(s.work_rate * s.traced_seconds, chunk) + chunk;  // slack
    // 45% NewOrders over 10 districts per warehouse. Speculative runs need
    // more: rolled-back speculative inserts keep their slots.
    const double f = spec ? 3.0 : 1.25;
    s.tpcc.order_headroom_per_district = static_cast<std::uint32_t>(
        f * 0.45 * stream / (10.0 * s.tpcc.warehouses) + 2000);
  } else if (s.name == "ycsb-durable-100k") {
    // 2^22 rows (~0.4 GB) exceed the last-level cache; uniform keys.
    ycsb(o.smoke ? 1u << 16 : 1u << 22, 0.0);
    s.cfg.durable = true;
    s.cfg.log_dir =
        o.work_dir + "/quecc-wal-" + std::to_string(::getpid());
    s.cfg.batch_size = 4096;
    s.cfg.batch_deadline_micros = 2000;
    s.cfg.group_commit_micros = 200;
    s.open_loop = true;
    s.offered_tps = o.smoke ? 20'000 : 100'000;
    s.warmup_seconds = o.smoke ? 0.2 : 2;
    s.traced_seconds = o.smoke ? 0.5 : 2;
  } else {
    throw std::invalid_argument("unknown workload '" + s.name + "'");
  }
  return s;
}

double set_up(const workload_spec& s, const common::config& cfg,
              const char* engine, instance& out) {
  const std::uint64_t t0 = common::now_nanos();
  if (s.gen == generator::tpcc) {
    out.w = std::make_unique<wl::tpcc>(s.tpcc);
  } else {
    out.w = std::make_unique<wl::ycsb>(s.ycsb);
  }
  out.db = std::make_unique<storage::database>();
  out.w->load(*out.db);
  if (engine != nullptr) out.eng = proto::make_engine(engine, *out.db, cfg);
  return static_cast<double>(common::now_nanos() - t0) / 1e9;
}

namespace {

constexpr int kSetupReps = 3;
std::atomic<std::uint64_t> g_spin_sink{0};

/// Keep every CPU busy for `seconds`. On a virtual machine, vCPUs that were
/// idle run several times slower for about a second once they get work
/// (measured on the 4-vCPU reference box); spinning first keeps that ramp
/// out of the measured phase.
void warm_cpus(double seconds) {
  const std::uint64_t until =
      common::now_nanos() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    spinners.emplace_back([until] {
      std::uint64_t x = 1;
      while (common::now_nanos() < until) {
        for (int k = 0; k < 1000; ++k) x = x * 6364136223846793005ull + 1;
      }
      // relaxed: only keeps the loop from being optimized away.
      g_spin_sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : spinners) t.join();
}

void release(instance& i) {
  i.eng.reset();
  i.db.reset();
  i.w.reset();
}

/// Removes a directory tree on scope exit (empty path: nothing).
struct dir_guard {
  std::string path;
  ~dir_guard() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct oracle_result {
  std::uint64_t hash = 0;
  std::uint64_t failed = 0;            ///< lost, or aborted where serial committed
  std::uint64_t wrongly_committed = 0; ///< committed where serial aborted
};

/// Regenerate the stream from the seed and run it through the serial
/// engine on `fresh`, comparing every transaction's outcome.
oracle_result replay_serial(const workload_spec& s, std::uint64_t seed,
                            const std::vector<std::uint8_t>& outcomes,
                            instance& fresh, metric_set& m) {
  common::config cfg = s.cfg;
  cfg.durable = false;
  fresh.eng = proto::make_engine("serial", *fresh.db, cfg);
  common::rng r(seed);
  common::run_metrics rm;
  oracle_result res;
  std::uint64_t busy = 0;
  std::uint32_t id = 0;
  for (std::size_t done = 0; done < outcomes.size();) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>(s.batch_size, outcomes.size() - done));
    txn::batch b = fresh.w->make_batch(r, n, id++);
    const std::uint64_t t0 = common::now_nanos();
    fresh.eng->run_batch(b, rm);
    busy += common::now_nanos() - t0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const bool serial_committed = !b.at(i).aborted();
      switch (outcomes[done + i]) {
        case lost: ++res.failed; break;
        case aborted: res.failed += serial_committed ? 1 : 0; break;
        default: res.wrongly_committed += serial_committed ? 0 : 1; break;
      }
    }
    done += n;
  }
  m.set("oracle.serial_tps",
        static_cast<double>(outcomes.size()) * 1e9 / static_cast<double>(busy),
        "1/s");
  fresh.eng.reset();
  res.hash = fresh.db->state_hash();
  return res;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void write_params(obs::json_writer& w, const workload_spec& s) {
  const common::config& c = s.cfg;
  w.key("params");
  w.begin_object();
  w.kv("generator", s.gen == generator::tpcc ? "tpcc" : "ycsb");
  if (s.gen == generator::tpcc) {
    w.kv("warehouses", s.tpcc.warehouses);
    w.kv("scan_profiles", s.tpcc.scan_profiles);
    w.kv("order_headroom_per_district", s.tpcc.order_headroom_per_district);
    w.kv("initial_orders_per_district", s.tpcc.initial_orders_per_district);
  } else {
    w.kv("table_size", s.ycsb.table_size);
    w.kv("ops_per_txn", s.ycsb.ops_per_txn);
    w.kv("read_ratio", s.ycsb.read_ratio);
    w.kv("rmw", s.ycsb.rmw);
    w.kv("zipf_theta", s.ycsb.zipf_theta);
    w.kv("index", storage::index_kind_name(s.ycsb.index));
  }
  w.kv("engine", "quecc");
  w.kv("planner_threads", static_cast<unsigned>(c.planner_threads));
  w.kv("executor_threads", static_cast<unsigned>(c.executor_threads));
  w.kv("partitions", static_cast<unsigned>(c.partitions));
  w.kv("pipeline_depth", c.pipeline_depth);
  w.kv("async_epilogue", c.async_epilogue);
  w.kv("execution", common::to_string(c.execution));
  w.kv("isolation", common::to_string(c.iso));
  w.kv("durable", c.durable);
  w.kv("loop", s.open_loop ? "open" : "closed");
  if (s.open_loop) {
    w.kv("offered_tps", s.offered_tps);
    w.kv("warmup_seconds", s.warmup_seconds);
    w.kv("batch_cap", c.batch_size);
    w.kv("batch_deadline_micros", c.batch_deadline_micros);
    w.kv("group_commit_micros", c.group_commit_micros);
  } else {
    w.kv("batch_size", s.batch_size);
    w.kv("chunk_batches", s.chunk_batches);
    w.kv("work_rate", s.work_rate);
  }
  w.kv("traced_seconds", s.traced_seconds);
  w.end_object();
}

void write_box(obs::json_writer& w) {
  w.key("box");
  w.begin_object();
  w.kv("nproc", static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN)));
  w.kv("numa_nodes",
       static_cast<unsigned>(common::system_topology().nodes.size()));
#if defined(__clang__)
  w.kv("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  w.kv("compiler", "gcc " __VERSION__);
#else
  w.kv("compiler", "unknown");
#endif
  w.kv("build_type", QUECC_BENCH_BUILD_TYPE);
  w.end_object();
}

int run(const options& o) {
  const workload_spec s = make_spec(o);
  const dir_guard wal{s.cfg.durable ? s.cfg.log_dir : std::string()};
  const speed_probe probe;
  run_record rec;
  metric_set& m = rec.metrics;
  std::vector<double> setup_raw_s;
  std::vector<double> setup_s;  ///< at the reference speed
  const auto timed_set_up = [&](const common::config& cfg, instance& out) {
    const double before = probe.ns_per_access();
    setup_raw_s.push_back(set_up(s, cfg, "quecc", out));
    const double slowdown = (before + probe.ns_per_access()) / 2 /
                            speed_probe::kReferenceNs;
    setup_s.push_back(setup_raw_s.back() / slowdown);
  };
  std::uint64_t live_hash = 0;
  {
    instance live;
    timed_set_up(s.cfg, live);
    warm_cpus(1.5);
    rec = s.open_loop ? run_open_loop(s, o, live)
                      : run_closed_loop(s, o, live, probe);
    if (o.trace) {
      attribute_trace(rec.spans,
                      o.trace_out.empty()
                          ? o.work_dir + "/trace-" + s.name + ".json"
                          : o.trace_out,
                      m);
    }
    probe_planner(s, live, o.seed, m);
    probe_storage(s, *live.db, o.seed, m);
    live.eng.reset();  // quiescent; a durable engine flushes its log here
    live_hash = live.db->state_hash();
    release(live);
  }

  // Set-up repetitions run after the measured phase, so the peak RSS
  // sample saw a single database. The last one's database is reused.
  instance kept;
  for (int rep = 1; rep < kSetupReps; ++rep) {
    release(kept);
    common::config cfg = s.cfg;
    const dir_guard scratch{cfg.durable ? cfg.log_dir + "-setup" : ""};
    if (cfg.durable) cfg.log_dir = scratch.path;
    timed_set_up(cfg, kept);
    kept.eng.reset();
  }
  m.set("setup_s", median(setup_s), "s");
  m.set("setup_raw_s", median(setup_raw_s), "s");

  bool recovery_ok = true;
  std::uint64_t recovered = 0;
  if (s.cfg.durable) {
    recovered = recover_log(s, s.cfg.log_dir, kept, m);
    recovery_ok = recovered == live_hash;
    release(kept);
    set_up(s, s.cfg, nullptr, kept);
  } else {
    m.set("recovery_s", 0, "s");
    m.set("recovery.replay_tps", 0, "1/s");
    m.set("recovery.batches_replayed", 0, "count");
  }
  const oracle_result oracle = replay_serial(s, o.seed, rec.outcomes, kept, m);
  release(kept);

  const bool hash_ok = oracle.hash == live_hash;
  const std::uint64_t attempted = rec.outcomes.size();
  std::uint64_t failed = oracle.failed + oracle.wrongly_committed;
  if (!hash_ok || !recovery_ok) failed = attempted;
  const bool correct = failed == 0;
  m.set("failed_frac",
        static_cast<double>(failed) / static_cast<double>(attempted), "frac");

  obs::json_writer w(std::cout);
  w.begin_object();
  w.kv("workload", s.name);
  w.kv("seed", o.seed);
  w.kv("seconds", o.seconds);
  w.kv("trace", o.trace);
  w.kv("smoke", o.smoke);
  write_params(w, s);
  write_box(w);
  w.kv("correct", correct);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("gates");
  w.begin_object();
  w.kv("serial_hash", hash_ok);
  w.kv("serial_outcomes", oracle.failed == 0 && oracle.wrongly_committed == 0);
  if (s.cfg.durable) w.kv("recovery_hash", recovery_ok);
  w.end_object();
  w.key("hashes");
  w.begin_object();
  w.kv("live", hex(live_hash));
  w.kv("serial", hex(oracle.hash));
  if (s.cfg.durable) w.kv("recovered", hex(recovered));
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, vu] : m.items()) {
    w.key(name);
    w.begin_object();
    w.kv("value", vu.first);
    w.kv("unit", vu.second);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << std::endl;
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "quecc_bench: %s\nusage: quecc_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--work-dir DIR] [--trace-out FILE]\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = need();
    } else if (a == "--seed") {
      o.seed = std::stoull(need());
    } else if (a == "--seconds") {
      o.seconds = std::stod(need());
    } else if (a == "--trace") {
      o.trace = need() != "0";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--work-dir") {
      o.work_dir = need();
    } else if (a == "--trace-out") {
      o.trace_out = need();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace quecc::e2e

int main(int argc, char** argv) {
  try {
    return quecc::e2e::run(quecc::e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quecc_bench: %s\n", e.what());
    return 2;
  }
}
