// Micro-benchmarks (google-benchmark) for the engine's building blocks:
// the hot-path costs that the experiment benches aggregate.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/spinlock.hpp"
#include "common/topology.hpp"
#include "common/zipf.hpp"
#include "core/admission.hpp"
#include "core/planner.hpp"
#include "log/log_writer.hpp"
#include "log/plan_codec.hpp"
#include "storage/database.hpp"
#include "storage/ordered_index.hpp"
#include "txn/txn_context.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace quecc;

void BM_RngNext(benchmark::State& state) {
  common::rng r(1);
  for (auto _ : state) benchmark::DoNotOptimize(r.next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  common::rng r(1);
  common::zipf_generator z(1 << 20, state.range(0) / 100.0);
  for (auto _ : state) benchmark::DoNotOptimize(z.next(r));
}
BENCHMARK(BM_ZipfNext)->Arg(0)->Arg(60)->Arg(99);

void BM_SpinlockUncontended(benchmark::State& state) {
  common::spinlock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinlockUncontended);

void BM_HashIndexLookup(benchmark::State& state) {
  storage::hash_index idx(1 << 16);
  for (quecc::key_t k = 0; k < (1 << 16); ++k) idx.insert(k, k);
  common::rng r(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.lookup(r.next_below(1 << 16)));
  }
}
BENCHMARK(BM_HashIndexLookup);

// --- ordered index (deterministic skip list) --------------------------------
// Point lookups cost O(log n) vs the hash index's O(1) — the price of
// admitting range scans. The scan benches amortize the descent over the
// level-0 walk: per-visited-key cost drops with scan length, which is why
// TPC-C's Order-Status (15 keys) and Stock-Level (~300 keys) profiles run
// as single scan fragments instead of per-key reads.

storage::ordered_index& ordered_bench_index() {
  static storage::ordered_index* idx = [] {
    auto* i = new storage::ordered_index(1 << 16);
    for (quecc::key_t k = 0; k < (1 << 16); ++k) i->insert(k, k);
    return i;
  }();
  return *idx;
}

void BM_OrderedLookup(benchmark::State& state) {
  auto& idx = ordered_bench_index();
  common::rng r(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.lookup(r.next_below(1 << 16)));
  }
}
BENCHMARK(BM_OrderedLookup);

void BM_OrderedScan(benchmark::State& state) {
  auto& idx = ordered_bench_index();
  const auto len = static_cast<quecc::key_t>(state.range(0));
  common::rng r(1);
  for (auto _ : state) {
    const quecc::key_t lo = r.next_below((1 << 16) - len);
    std::uint64_t sum = 0;
    idx.visit_range(
        lo, lo + len,
        [](void* ctx, quecc::key_t k, storage::row_id_t) {
          *static_cast<std::uint64_t*>(ctx) += k;
          return true;
        },
        &sum);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_OrderedScan)->Arg(64)->Arg(1024);

// --- sharded-storage lookup ------------------------------------------------
// 8-arena table: the home-shard routing on top of the lock-free index
// lookup every engine uses.

storage::database& sharded_lookup_db() {
  static storage::database db = [] {
    storage::database d;
    auto& t = d.create_table(
        "t", storage::schema({{"A", storage::col_type::u64, 8}}), 1 << 16, 8);
    std::vector<std::byte> p(8);
    for (quecc::key_t k = 0; k < (1 << 16); ++k) {
      t.insert(k, p, static_cast<part_id_t>(k % 8));
    }
    return d;
  }();
  return db;
}

void BM_ShardedLookup(benchmark::State& state) {
  auto& t = sharded_lookup_db().at(0);
  common::rng r(1);
  for (auto _ : state) {
    const auto k = r.next_below(1 << 16);
    benchmark::DoNotOptimize(t.lookup(k, static_cast<part_id_t>(k % 8)));
  }
}
BENCHMARK(BM_ShardedLookup);

void BM_TableRowAccess(benchmark::State& state) {
  storage::database db;
  auto& t = db.create_table(
      "t", storage::schema({{"A", storage::col_type::u64, 8}}), 1 << 16);
  std::vector<std::byte> p(8);
  for (quecc::key_t k = 0; k < (1 << 16); ++k) t.insert(k, p);
  common::rng r(1);
  for (auto _ : state) {
    const auto rid = t.lookup(r.next_below(1 << 16));
    benchmark::DoNotOptimize(storage::read_u64(t.row(rid), 0));
  }
}
BENCHMARK(BM_TableRowAccess);

void BM_SlotProduceConsume(benchmark::State& state) {
  txn::txn_desc t;
  t.resize_slots(16);
  std::uint16_t s = 0;
  for (auto _ : state) {
    t.produce(s, 42);
    benchmark::DoNotOptimize(t.inputs_ready(1ull << s));
    s = (s + 1) % 16;
  }
}
BENCHMARK(BM_SlotProduceConsume);

void BM_PlanningPhase(benchmark::State& state) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1 << 16;
  wcfg.partitions = 8;
  auto w = wl::ycsb(wcfg);
  storage::database db;
  w.load(db);

  common::config cfg;
  cfg.planner_threads = 1;
  cfg.executor_threads = 4;
  cfg.partitions = 8;
  core::planner pl(0, cfg, db);
  core::plan_output out;

  common::rng r(1);
  auto b = w.make_batch(r, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    pl.plan(b, out);
    benchmark::DoNotOptimize(out.planned_frags);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlanningPhase)->Arg(256)->Arg(2048);

void BM_AdmissionSubmitDrain(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  core::admission_queue q(n);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < n; ++i) {
      core::admitted_txn a;
      a.txn = std::make_unique<txn::txn_desc>();
      q.submit(std::move(a));
    }
    auto batch = q.pop_batch(n, /*deadline_micros=*/0);
    benchmark::DoNotOptimize(batch.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AdmissionSubmitDrain)->Arg(256)->Arg(2048);

/// Buffered append only: the cost a batch record adds to the planning
/// phase (group commit defers the fsync off this path).
void BM_LogAppend(benchmark::State& state) {
  benchutil::scratch_dir dir;
  log::log_writer w(dir.path, {});
  std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.append(log::record_type::batch, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogAppend)->Arg(256)->Arg(4096)->Arg(1 << 16);

/// Append + durable ack: what a synchronous commit pays per batch. The
/// gap to BM_LogAppend is the group-commit fsync; `batch` appends share
/// one wait, modelling `batch` commit records coalescing into one sync.
void BM_LogGroupCommit(benchmark::State& state) {
  benchutil::scratch_dir dir;
  log::writer_options opts;
  opts.group_commit_micros = 100;
  log::log_writer w(dir.path, opts);
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::byte> payload(512);
  for (auto _ : state) {
    log::log_writer::lsn_t last = 0;
    for (std::uint32_t i = 0; i < batch; ++i) {
      last = w.append(log::record_type::commit, payload);
    }
    w.wait_durable(last);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LogGroupCommit)->Arg(1)->Arg(8)->Arg(64);

void BM_PlanCodecEncode(benchmark::State& state) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1 << 16;
  auto w = wl::ycsb(wcfg);
  common::rng r(1);
  auto b = w.make_batch(r, static_cast<std::uint32_t>(state.range(0)));
  std::vector<std::byte> out;
  for (auto _ : state) {
    out.clear();
    log::encode_batch(b, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlanCodecEncode)->Arg(256)->Arg(2048);

void BM_StateHash(benchmark::State& state) {
  wl::ycsb_config wcfg;
  wcfg.table_size = 1 << 14;
  auto w = wl::ycsb(wcfg);
  storage::database db;
  w.load(db);
  for (auto _ : state) benchmark::DoNotOptimize(db.state_hash());
}
BENCHMARK(BM_StateHash);

// --- topology / placement (common/topology.hpp) -----------------------------
// Placement is computed once per engine construction, but the topology
// helpers also sit on the pin path of every worker spawn — keep them cheap.

void BM_CpulistParse(benchmark::State& state) {
  // A dense 128-cpu two-socket list, the realistic worst case.
  const std::string list = "0-31,64-95,32-63,96-127";
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::parse_cpulist(list));
  }
}
BENCHMARK(BM_CpulistParse);

void BM_TopologyCpuLookup(benchmark::State& state) {
  common::topology topo;
  for (unsigned n = 0; n < 4; ++n) {
    common::numa_node nd;
    nd.id = n;
    for (unsigned c = 0; c < 32; ++c) nd.cpus.push_back(n * 32 + c);
    topo.nodes.push_back(std::move(nd));
  }
  common::rng r(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.node_of_cpu(r.next_below(128)));
  }
}
BENCHMARK(BM_TopologyCpuLookup);

void BM_PlacementCompute(benchmark::State& state) {
  common::topology topo;
  for (unsigned n = 0; n < 4; ++n) {
    common::numa_node nd;
    nd.id = n;
    for (unsigned c = 0; c < 32; ++c) nd.cpus.push_back(n * 32 + c);
    topo.nodes.push_back(std::move(nd));
  }
  common::placement_spec spec;
  spec.planners = 16;
  spec.executors = 64;
  spec.policy = state.range(0) == 0 ? common::pin_policy::compact
                                    : common::pin_policy::spread;
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::compute_placement(topo, spec));
  }
}
BENCHMARK(BM_PlacementCompute)->Arg(0)->Arg(1);

}  // namespace

// Hand-rolled BENCHMARK_MAIN: console output for humans plus a
// google-benchmark JSON report at BENCH_micro.json (next to the
// quecc-bench-v1 files the experiment benches emit, honoring
// $QUECC_BENCH_JSON_DIR). An explicit --benchmark_out on the command
// line wins over the injected default.
int main(int argc, char** argv) {
  const char* dir = std::getenv("QUECC_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir && *dir ? dir : ".") + "/BENCH_micro.json";
  std::string out_flag = "--benchmark_out=" + path;
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args(argv, argv + argc);
  bool user_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      user_out = true;
    }
  }
  if (!user_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!user_out) std::printf("json report: %s\n", path.c_str());
  benchmark::Shutdown();
  return 0;
}
