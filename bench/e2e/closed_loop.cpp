// Closed loop: one bench thread generates a chunk of batches untimed, then
// drives the engine's pipelined batch API over the chunk, keeping up to
// pipeline_depth() batches in flight. Each chunk is timed from its first
// submit_batch to its last drain_batch; the first chunk is warm-up. A
// speed probe before and after each chunk gives the factor that scales the
// chunk's timings to the reference box's speed.
#include <algorithm>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"

namespace quecc::e2e {

namespace {

/// Accumulators of one phase (measured or traced).
struct phase {
  std::vector<double> chunk_tps;
  /// submit_batch call -> drain_batch return, for every batch but a
  /// chunk's first: that one runs on an empty pipeline, the rest queue
  /// behind an in-flight batch like a steady closed loop.
  std::vector<double> batch_ns;
  /// The same, scaled to the reference speed by the chunk's slowdown.
  std::vector<double> chunk_tps_ref;
  std::vector<double> batch_ns_ref;
  std::vector<double> slowdown;  ///< per chunk: probe time / reference
  std::uint64_t submit_ns = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t timed_ns = 0;
  std::uint64_t gen_ns = 0;
  std::uint64_t txns = 0;
  common::run_metrics m;
};

class closed_loop {
 public:
  closed_loop(const workload_spec& s, const options& o, instance& live,
              const speed_probe& probe, run_record& rec)
      : s_(s), live_(live), probe_(probe), rec_(rec), r_(o.seed),
        depth_(std::max<std::uint32_t>(1, live.eng->pipeline_depth())) {}

  /// Whether phase `p`, started at `start` and `seconds` long, runs
  /// another chunk: always below `min_chunks`; then, for a fixed-work
  /// spec, while the chunk fits the phase's work (up to the safety stop),
  /// else while time remains.
  bool more(const phase& p, std::uint64_t start, double seconds,
            std::size_t min_chunks) const {
    if (p.chunk_tps.size() < min_chunks) return true;
    const double elapsed =
        static_cast<double>(common::now_nanos() - start) / 1e9;
    if (s_.work_rate == 0) return elapsed < seconds;
    const double chunk = static_cast<double>(s_.chunk_batches) * s_.batch_size;
    return static_cast<double>(p.txns) + chunk <= s_.work_rate * seconds &&
           elapsed < kSafetyFactor * seconds;
  }

  void run_chunk(phase& p, std::vector<bench_span>* spans) {
    const double probe_before = probe_.ns_per_access();
    const std::size_t first_batch = p.batch_ns.size();
    const std::uint64_t g0 = common::now_nanos();
    std::vector<txn::batch> chunk;
    chunk.reserve(s_.chunk_batches);
    for (std::uint32_t i = 0; i < s_.chunk_batches; ++i) {
      chunk.push_back(live_.w->make_batch(r_, s_.batch_size, next_id_++));
    }
    const std::uint64_t g1 = common::now_nanos();
    p.gen_ns += g1 - g0;
    if (spans) spans->push_back({"generate", g0, g1 - g0});

    proto::engine& eng = *live_.eng;
    std::vector<std::uint64_t> submitted(chunk.size());
    std::size_t next = 0;
    std::size_t drained = 0;
    const std::uint64_t t0 = common::now_nanos();
    while (drained < chunk.size()) {
      if (next < chunk.size() && next - drained < depth_) {
        const std::uint64_t a = common::now_nanos();
        eng.submit_batch(chunk[next], p.m);
        const std::uint64_t b = common::now_nanos();
        submitted[next] = a;
        p.submit_ns += b - a;
        if (spans) spans->push_back({"submit_batch", a, b - a, chunk[next].id()});
        ++next;
      } else {
        const std::uint64_t a = common::now_nanos();
        eng.drain_batch();
        const std::uint64_t b = common::now_nanos();
        p.drain_ns += b - a;
        if (drained > 0) {
          p.batch_ns.push_back(static_cast<double>(b - submitted[drained]));
        }
        if (spans) {
          spans->push_back({"drain_batch", a, b - a, chunk[drained].id()});
        }
        ++drained;
      }
    }
    const std::uint64_t t1 = common::now_nanos();

    std::uint64_t committed_n = 0;
    for (const txn::batch& b : chunk) {
      for (const auto& t : b) {
        const bool c = !t->aborted();
        rec_.outcomes.push_back(c ? committed : aborted);
        committed_n += c ? 1 : 0;
      }
    }
    p.timed_ns += t1 - t0;
    p.txns += static_cast<std::uint64_t>(chunk.size()) * s_.batch_size;
    p.chunk_tps.push_back(static_cast<double>(committed_n) * 1e9 /
                          static_cast<double>(t1 - t0));
    const double slowdown = (probe_before + probe_.ns_per_access()) / 2 /
                            speed_probe::kReferenceNs;
    p.slowdown.push_back(slowdown);
    p.chunk_tps_ref.push_back(p.chunk_tps.back() * slowdown);
    for (std::size_t i = first_batch; i < p.batch_ns.size(); ++i) {
      p.batch_ns_ref.push_back(p.batch_ns[i] / slowdown);
    }
  }

 private:
  const workload_spec& s_;
  instance& live_;
  const speed_probe& probe_;
  run_record& rec_;
  common::rng r_;
  const std::uint32_t depth_;
  std::uint32_t next_id_ = 0;
};

}  // namespace

run_record run_closed_loop(const workload_spec& s, const options& o,
                           instance& live, const speed_probe& probe) {
  run_record rec;
  closed_loop loop(s, o, live, probe, rec);

  phase warm;
  loop.run_chunk(warm, nullptr);

  phase meas;
  const obs::metrics_snapshot before = obs::snapshot_metrics();
  const std::uint64_t start = common::now_nanos();
  while (loop.more(meas, start, o.seconds, kMinMeasuredChunks)) {
    loop.run_chunk(meas, nullptr);
  }
  const obs::metrics_snapshot delta =
      registry_delta(before, obs::snapshot_metrics());
  metric_set& m = rec.metrics;
  m.set("peak_rss_mb", peak_rss_mb(), "MB");

  const double timed_s = static_cast<double>(meas.timed_ns) / 1e9;
  // Gated values at the reference speed; the raw ones beside them.
  m.set("throughput_tps", median(meas.chunk_tps_ref), "1/s");
  m.set("e2e_p50_ms", median(meas.batch_ns_ref) / 1e6, "ms");
  m.set("throughput_raw_tps", median(meas.chunk_tps), "1/s");
  m.set("e2e_p50_raw_ms", median(meas.batch_ns) / 1e6, "ms");
  m.set("e2e_p99_ms", quantile(meas.batch_ns, 0.99) / 1e6, "ms");
  m.set("probe.slowdown", median(meas.slowdown), "ratio");
  m.set("measured_txns", static_cast<double>(meas.txns), "count");
  m.set("measured_chunks", static_cast<double>(meas.chunk_tps.size()),
        "count");

  m.set("engine.submit_s", static_cast<double>(meas.submit_ns) / 1e9, "s");
  m.set("engine.drain_wait_s", static_cast<double>(meas.drain_ns) / 1e9, "s");
  m.set("engine.overlap_frac", meas.m.pipeline_overlap_seconds / timed_s,
        "frac");
  m.set("engine.batch_ms_p50", median(meas.batch_ns) / 1e6, "ms");
  m.set("engine.chunk_tps_iqr_frac", iqr_frac(meas.chunk_tps), "frac");
  m.set("client.e2e_p99_ms", quantile(meas.batch_ns, 0.99) / 1e6, "ms");
  m.set("client.e2e_samples", static_cast<double>(meas.batch_ns.size()),
        "count");
  m.set("workload.gen_ns_per_txn",
        static_cast<double>(meas.gen_ns) / static_cast<double>(meas.txns),
        "ns");
  // The closed loop hands whole batches to the engine: the admission
  // queue, batch former and client pacing are bypassed.
  m.set("admission.queue_ms_p50", 0, "ms");
  m.set("admission.queue_ms_p99", 0, "ms");
  m.set("admission.submit_ns_p99", 0, "ns");
  m.set("admission.batch_fill", 1, "frac");
  m.set("client.gen_lag_ms_p99", 0, "ms");
  registry_metrics(delta, meas.txns, timed_s, s.cfg, m);

  if (o.trace) {
    phase traced;
    obs::set_tracing_enabled(true);
    const std::uint64_t t0 = common::now_nanos();
    while (loop.more(traced, t0, s.traced_seconds, 1)) {
      loop.run_chunk(traced, &rec.spans);
    }
    obs::set_tracing_enabled(false);
    // Tracing costs throughput; the untraced phase is the reference.
    m.set("trace.overhead_frac",
          1.0 - median(traced.chunk_tps_ref) / median(meas.chunk_tps_ref),
          "frac");
  }
  return rec;
}

}  // namespace quecc::e2e
