// Per-layer measurements taken from outside the engine: isolated probes of
// the planner and the storage layer, registry deltas over the measured
// phase, and self time from the traced phase's spans.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/planner.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace quecc::e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double iqr_frac(const std::vector<double>& v) {
  const double med = median(v);
  return med > 0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / med : 0;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

// --- probes ----------------------------------------------------------------

namespace {
/// Probe results land here so the timed loops cannot be optimized away.
volatile std::uint64_t g_sink = 0;
}  // namespace

speed_probe::speed_probe() : next_((32u << 20) / sizeof(std::uint32_t)) {
  // One random cycle through every slot, so each access misses the
  // private caches and the chases never fall into a short loop.
  std::vector<std::uint32_t> order(next_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  common::rng r(0x9b05688c2b3e6c1full);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[r.next_below(i)]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    next_[order[i]] = order[(i + 1) % order.size()];
  }
}

double speed_probe::ns_per_access() const {
  constexpr int kChains = 8;
  constexpr int kSteps = 25'000;
  std::uint32_t at[kChains];
  for (int k = 0; k < kChains; ++k) {
    at[k] = static_cast<std::uint32_t>(k * (next_.size() / kChains));
  }
  const std::uint64_t t0 = common::now_nanos();
  for (int i = 0; i < kSteps; ++i) {
    for (int k = 0; k < kChains; ++k) at[k] = next_[at[k]];
  }
  const std::uint64_t t1 = common::now_nanos();
  for (int k = 0; k < kChains; ++k) g_sink = g_sink + at[k];
  return static_cast<double>(t1 - t0) / (kChains * kSteps);
}

void probe_planner(const workload_spec& s, instance& live, std::uint64_t seed,
                   metric_set& m) {
  // A separate stream: the probe batches are planned, never executed.
  common::rng r(seed ^ 0x51ed270b27e3a1f5ull);
  std::vector<core::planner> planners;
  for (worker_id_t p = 0; p < s.cfg.planner_threads; ++p) {
    planners.emplace_back(p, s.cfg, *live.db);
  }
  core::plan_output out;
  std::vector<double> ns_per_txn;
  for (int rep = 0; rep < 5; ++rep) {
    txn::batch b = live.w->make_batch(r, s.batch_size, 0);
    // Every planner's slice on this one thread: the sum is the planning
    // work per transaction, free of stage hand-offs.
    const std::uint64_t t0 = common::now_nanos();
    for (core::planner& pl : planners) pl.plan(b, out);
    const std::uint64_t t1 = common::now_nanos();
    ns_per_txn.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(b.size()));
  }
  m.set("planner.plan_ns_per_txn", median(ns_per_txn), "ns");
}

void probe_storage(const workload_spec& s, const storage::database& db,
                   std::uint64_t seed, metric_set& m) {
  const bool tpcc = s.gen == generator::tpcc;
  const storage::table& t = db.by_name(tpcc ? "order_line" : "usertable");

  // ~64K live keys, strided across every shard, probed in random order.
  std::vector<std::pair<key_t, part_id_t>> keys;
  for (part_id_t sh = 0; sh < t.shard_count(); ++sh) {
    const std::size_t stride =
        std::max<std::size_t>(1, t.live_rows_in(sh) * t.shard_count() / 65536);
    std::size_t i = 0;
    t.for_each_live_in(sh, [&](key_t k, storage::row_id_t) {
      if (i++ % stride == 0) keys.emplace_back(k, sh);
    });
  }
  common::rng r(seed ^ 0x2545f4914f6cdd1dull);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[r.next_below(i)]);
  }

  // Lookups timed in groups of 32 (a clock read costs about as much as a
  // hash lookup); the p50 is over per-lookup group averages.
  constexpr std::size_t kGroup = 32;
  std::vector<double> per_lookup;
  std::uint64_t sink = 0;
  for (std::size_t g = 0; g + kGroup <= keys.size(); g += kGroup) {
    const std::uint64_t t0 = common::now_nanos();
    for (std::size_t i = g; i < g + kGroup; ++i) {
      sink += t.lookup(keys[i].first, keys[i].second);
    }
    per_lookup.push_back(static_cast<double>(common::now_nanos() - t0) /
                         kGroup);
  }
  m.set("storage.lookup_ns_p50", median(per_lookup), "ns");

  // Scans: on an ordered table, Stock-Level sized ranges (20 orders of up
  // to 16 lines) from sampled keys; on a hash-only database, a full visit
  // of one shard.
  std::uint64_t rows = 0;
  const std::uint64_t s0 = common::now_nanos();
  if (t.index() == storage::index_kind::ordered) {
    const auto count = [](void* ctx, key_t, storage::row_id_t) {
      ++*static_cast<std::uint64_t*>(ctx);
      return true;
    };
    const std::size_t n = std::min<std::size_t>(keys.size(), 4096);
    for (std::size_t i = 0; i < n; ++i) {
      t.visit_range_in(keys[i].second, keys[i].first,
                       keys[i].first + 20 * (wl::kMaxOrderLines + 1), count,
                       &rows);
    }
  } else {
    t.for_each_live_in(0, [&](key_t k, storage::row_id_t) {
      sink += k;
      ++rows;
    });
  }
  const std::uint64_t s1 = common::now_nanos();
  m.set("storage.scan_ns_per_row",
        rows ? static_cast<double>(s1 - s0) / static_cast<double>(rows) : 0,
        "ns");
  g_sink = sink;

  // Row slots allocated per live row: speculative inserts rolled back by a
  // cascading abort keep their slot (the spec-mode leak README describes).
  const auto ratio = [&](const char* name) {
    const storage::table& tb = db.by_name(name);
    return tb.live_rows() ? static_cast<double>(tb.allocated_rows()) /
                                static_cast<double>(tb.live_rows())
                          : 0.0;
  };
  m.set("storage.orders_alloc_over_live", tpcc ? ratio("orders") : 0,
        "ratio");
  m.set("storage.order_line_alloc_over_live", tpcc ? ratio("order_line") : 0,
        "ratio");
}

// --- registry --------------------------------------------------------------

obs::metrics_snapshot registry_delta(const obs::metrics_snapshot& before,
                                     const obs::metrics_snapshot& after) {
  obs::metrics_snapshot d;
  for (const auto& [name, v] : after.counters) {
    std::uint64_t old = 0;
    for (const auto& [n, ov] : before.counters) {
      if (n == name) old = ov;
    }
    d.counters.emplace_back(name, v - old);
  }
  for (const auto& [name, h] : after.histograms) {
    std::uint64_t buckets[common::latency_histogram::kBuckets];
    std::uint64_t count = h.count();
    std::uint64_t sum = h.sum_nanos();
    for (std::size_t b = 0; b < common::latency_histogram::kBuckets; ++b) {
      buckets[b] = h.bucket_count(b);
    }
    for (const auto& [n, oh] : before.histograms) {
      if (n != name) continue;
      for (std::size_t b = 0; b < common::latency_histogram::kBuckets; ++b) {
        buckets[b] -= oh.bucket_count(b);
      }
      count -= oh.count();
      sum -= oh.sum_nanos();
    }
    common::latency_histogram dh;
    dh.merge_bucket_counts(buckets, count, sum);
    d.histograms.emplace_back(name, dh);
  }
  return d;
}

void registry_metrics(const obs::metrics_snapshot& d, std::uint64_t txns,
                      double wall_s, const common::config& cfg,
                      metric_set& m) {
  const auto counter = [&](std::string_view name) -> double {
    for (const auto& [n, v] : d.counters) {
      if (n == name) return static_cast<double>(v);
    }
    return 0;
  };
  const common::latency_histogram empty;
  const auto hist = [&](std::string_view name) -> const auto& {
    for (const auto& [n, h] : d.histograms) {
      if (n == name) return h;
    }
    return empty;
  };
  const double n = static_cast<double>(txns);
  const auto busy = [&](const char* layer, std::string_view histo) {
    const double ns = static_cast<double>(hist(histo).sum_nanos());
    m.set(std::string(layer) + ".busy_s", ns / 1e9, "s");
    m.set(std::string(layer) + ".busy_ns_per_txn", ns / n, "ns");
    return ns / 1e9;
  };
  busy("planner", "engine.plan_busy_nanos");
  const double exec_s = busy("executor", "engine.exec_busy_nanos");
  busy("epilogue", "engine.epilogue_nanos");
  m.set("executor.utilization", exec_s / (cfg.executor_threads * wall_s),
        "frac");

  m.set("spec.reexec_frac", counter("spec.reexecutions_total") / n, "frac");
  m.set("spec.cc_abort_frac", counter("spec.cascade_aborts_total") / n,
        "frac");
  m.set("spec.cascade_aborts", counter("spec.cascade_aborts_total"), "count");
  m.set("spec.full_redo", counter("spec.full_redo_total"), "count");

  const double fsyncs = counter("log.fsyncs_total");
  m.set("log.fsyncs", fsyncs, "count");
  m.set("log.txns_per_fsync", fsyncs > 0 ? n / fsyncs : 0, "ratio");
  m.set("log.bytes_per_txn", counter("log.appended_bytes_total") / n, "B");
  const common::latency_histogram& fs = hist("log.fsync_nanos");
  m.set("log.fsync_us_p50", fs.percentile_nanos(50) / 1e3, "us");
  m.set("log.fsync_us_p99", fs.percentile_nanos(99) / 1e3, "us");
}

// --- trace attribution -----------------------------------------------------

namespace {

struct event {
  std::string_view name;
  std::string_view cat;
  std::uint32_t tid = 0;
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
  std::uint64_t batch = obs::span_event::kNoBatch;
  std::uint32_t slot = obs::span_event::kNoSlot;
  std::uint64_t child = 0;   ///< time covered by direct children
  bool nested = false;       ///< has an enclosing span on its thread
};

}  // namespace

void attribute_trace(const std::vector<bench_span>& bench,
                     const std::string& path, metric_set& m) {
  const std::vector<obs::span_event> engine = obs::snapshot_trace();
  std::vector<event> ev;
  ev.reserve(engine.size() + bench.size());
  std::vector<std::size_t> per_tid;
  for (const obs::span_event& e : engine) {
    if (e.tid >= per_tid.size()) per_tid.resize(e.tid + 1, 0);
    ++per_tid[e.tid];
    ev.push_back({obs::trace_stage_name(e.stage), "quecc", e.tid,
                  e.start_nanos, e.dur_nanos, e.batch, e.slot});
  }
  for (std::size_t tid = 0; tid < per_tid.size(); ++tid) {
    if (per_tid[tid] >= obs::kTraceRingCapacity) {
      throw std::runtime_error(
          "trace ring of thread " + std::to_string(tid) + " wrapped (" +
          std::to_string(per_tid[tid]) +
          " spans): shorten the traced phase");
    }
  }
  const auto bench_tid = static_cast<std::uint32_t>(per_tid.size());
  for (const bench_span& b : bench) {
    ev.push_back({b.name, "bench", bench_tid, b.start_nanos, b.dur_nanos,
                  b.batch});
  }

  // Self time by interval containment: per thread, a span's direct parent
  // is the innermost earlier span whose interval covers it.
  std::sort(ev.begin(), ev.end(), [](const event& a, const event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].tid != ev[i - 1].tid) open.clear();
    const std::uint64_t end = ev[i].start + ev[i].dur;
    while (!open.empty() &&
           ev[open.back()].start + ev[open.back()].dur < end) {
      open.pop_back();
    }
    if (!open.empty()) {
      ev[open.back()].child += ev[i].dur;
      ev[i].nested = true;
    }
    open.push_back(i);
  }
  std::map<std::string, double> self_s;
  for (const event& e : ev) {
    // The epilogue's wait for the group-commit fsync nests inside the
    // epilogue span; the flusher's own fsyncs are top level.
    std::string key(e.name);
    if (key == "fsync" && e.nested) key = "fsync_wait";
    self_s[key] += static_cast<double>(e.dur - std::min(e.dur, e.child)) / 1e9;
  }
  for (const char* stage : {"plan", "exec", "epilogue", "fsync", "log_append",
                            "admission", "fsync_wait", "submit_batch",
                            "drain_batch", "submit_at", "generate"}) {
    const auto it = self_s.find(stage);
    m.set(std::string(stage) + ".self_s", it == self_s.end() ? 0 : it->second,
          "s");
  }
  m.set("trace.spans", static_cast<double>(ev.size()), "count");

  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const event& e : ev) t0 = std::min(t0, e.start);
  obs::json_writer w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  w.begin_object();
  w.kv("name", "thread_name");
  w.kv("ph", "M");
  w.kv("pid", 0);
  w.kv("tid", bench_tid);
  w.key("args");
  w.begin_object();
  w.kv("name", "bench");
  w.end_object();
  w.end_object();
  for (const event& e : ev) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("cat", e.cat);
    w.kv("ph", "X");
    w.kv("ts", static_cast<double>(e.start - t0) / 1e3);
    w.kv("dur", static_cast<double>(e.dur) / 1e3);
    w.kv("pid", 0);
    w.kv("tid", e.tid);
    w.key("args");
    w.begin_object();
    if (e.batch != obs::span_event::kNoBatch) w.kv("batch", e.batch);
    if (e.slot != obs::span_event::kNoSlot) w.kv("slot", e.slot);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

}  // namespace quecc::e2e
