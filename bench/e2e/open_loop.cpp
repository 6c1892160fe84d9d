// Open loop: independent clients modelled as Poisson arrivals at a fixed
// offered rate, submitted through proto::session::submit_at with the
// scheduled due time, so a stall is charged to every transaction queued
// behind it. One bench thread generates each transaction just before its
// due time, waits for the due time, and submits; tickets are retired in
// submission order as they resolve (durable acknowledgement).
#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "log/recovery.hpp"
#include "obs/trace.hpp"
#include "protocols/session.hpp"

namespace quecc::e2e {

namespace {

void wait_until(std::uint64_t due) {
  for (;;) {
    const std::uint64_t now = common::now_nanos();
    if (now >= due) return;
    // Sleep only when the gap dwarfs the scheduler's wake-up slack; spin
    // through the ~10 us gaps of the offered rate.
    if (due - now > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100'000));
    }
  }
}

/// Per-window client-side samples.
struct window {
  std::vector<double> e2e_ns;    ///< due time -> durable ack
  std::vector<double> queue_ns;  ///< due time -> batch execution start
  std::vector<double> submit_ns; ///< time inside submit_at
  std::vector<double> lag_ns;    ///< submit_at call time - due time
  std::vector<std::uint64_t> ack_nanos;  ///< committed txns only
  std::uint64_t first_due = 0;
  std::uint64_t last_ack = 0;
  std::uint64_t committed = 0;
  std::uint64_t txns = 0;
  std::uint64_t gen_ns = 0;
};

enum : std::uint8_t { kWarmup = 0, kMeasured = 1, kTraced = 2 };

struct pending {
  proto::session::ticket t;
  std::uint64_t due = 0;
  std::uint8_t win = kWarmup;
};

/// IQR / median of committed-ack counts in 500 ms buckets (the open-loop
/// counterpart of the closed loop's chunk-rate spread).
double ack_rate_iqr_frac(const window& w) {
  constexpr std::uint64_t kBucket = 500'000'000;
  std::vector<double> counts;
  for (const std::uint64_t a : w.ack_nanos) {
    const std::size_t b = (a - w.first_due) / kBucket;
    if (b >= counts.size()) counts.resize(b + 1, 0);
    counts[b] += 1;
  }
  if (counts.size() < 5) return 0;
  counts.pop_back();  // partial trailing bucket
  return iqr_frac(counts);
}

}  // namespace

run_record run_open_loop(const workload_spec& s, const options& o,
                         instance& live) {
  run_record rec;
  metric_set& m = rec.metrics;
  common::rng r(o.seed);
  // Arrival times come from their own generator, derived from the seed, so
  // the transaction stream never depends on timing.
  common::rng arrivals(o.seed ^ 0x9e3779b97f4a7c15ull);
  const double gap_ns = 1e9 / s.offered_tps;

  window win[3];
  std::deque<pending> inflight;
  const auto retire = [&](const pending& p) {
    window& w = win[p.win];
    if (!p.t.valid() || !p.t.done()) {
      rec.outcomes.push_back(lost);
      return;
    }
    const auto res = p.t.wait();
    const bool ok = res.status == txn::txn_status::committed;
    rec.outcomes.push_back(ok ? committed : aborted);
    if (!ok) return;
    const std::uint64_t ack = p.due + res.e2e_nanos;
    w.e2e_ns.push_back(static_cast<double>(res.e2e_nanos));
    w.queue_ns.push_back(static_cast<double>(res.queue_nanos));
    w.ack_nanos.push_back(ack);
    w.last_ack = std::max(w.last_ack, ack);
    ++w.committed;
  };

  obs::metrics_snapshot delta;
  double drain_wait_s = 0;
  {
    proto::session sess(*live.eng, s.cfg);
    const double lengths[3] = {s.warmup_seconds, o.seconds,
                               o.trace ? s.traced_seconds : 0.0};
    std::uint64_t due = common::now_nanos() + 1'000'000;
    const std::uint64_t first_due = due;
    obs::metrics_snapshot before;
    for (std::uint8_t wi = kWarmup; wi <= kTraced; ++wi) {
      if (lengths[wi] <= 0) continue;
      window& w = win[wi];
      if (wi == kMeasured) before = obs::snapshot_metrics();
      if (wi == kTraced) obs::set_tracing_enabled(true);
      const auto end = due + static_cast<std::uint64_t>(lengths[wi] * 1e9);
      w.first_due = due;
      while (due < end) {
        const std::uint64_t g0 = common::now_nanos();
        auto t = live.w->make_txn(r);
        w.gen_ns += common::now_nanos() - g0;
        wait_until(due);
        const std::uint64_t a = common::now_nanos();
        auto ticket = sess.submit_at(std::move(t), due);
        const std::uint64_t b = common::now_nanos();
        w.submit_ns.push_back(static_cast<double>(b - a));
        w.lag_ns.push_back(static_cast<double>(a - due));
        if (wi == kTraced) rec.spans.push_back({"submit_at", a, b - a});
        ++w.txns;
        inflight.push_back({std::move(ticket), due, wi});
        while (!inflight.empty() && (!inflight.front().t.valid() ||
                                     inflight.front().t.done())) {
          retire(inflight.front());
          inflight.pop_front();
        }
        due += static_cast<std::uint64_t>(-std::log1p(-arrivals.next_double()) *
                                          gap_ns);
      }
      if (wi == kMeasured) {
        delta = registry_delta(before, obs::snapshot_metrics());
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
      }
    }
    const std::uint64_t c0 = common::now_nanos();
    sess.close();
    drain_wait_s = static_cast<double>(common::now_nanos() - c0) / 1e9;
    obs::set_tracing_enabled(false);
    const double overlap_s = sess.metrics().pipeline_overlap_seconds;
    for (const pending& p : inflight) retire(p);
    inflight.clear();
    const double run_s =
        static_cast<double>(sess.last_commit_nanos() - first_due) / 1e9;
    m.set("engine.overlap_frac", run_s > 0 ? overlap_s / run_s : 0, "frac");
  }

  const window& w = win[kMeasured];
  const double window_s =
      static_cast<double>(w.last_ack - w.first_due) / 1e9;
  m.set("throughput_tps", static_cast<double>(w.committed) / window_s, "1/s");
  m.set("e2e_p50_ms", median(w.e2e_ns) / 1e6, "ms");
  m.set("e2e_p99_ms", quantile(w.e2e_ns, 0.99) / 1e6, "ms");
  m.set("measured_txns", static_cast<double>(w.txns), "count");
  m.set("offered_tps", s.offered_tps, "1/s");

  double submit_total = 0;
  for (const double v : w.submit_ns) submit_total += v;
  std::vector<double> exec_ns(w.e2e_ns.size());
  for (std::size_t i = 0; i < exec_ns.size(); ++i) {
    exec_ns[i] = w.e2e_ns[i] - w.queue_ns[i];
  }
  m.set("engine.submit_s", submit_total / 1e9, "s");
  m.set("engine.drain_wait_s", drain_wait_s, "s");
  m.set("engine.batch_ms_p50", median(exec_ns) / 1e6, "ms");
  m.set("engine.chunk_tps_iqr_frac", ack_rate_iqr_frac(w), "frac");
  m.set("admission.queue_ms_p50", median(w.queue_ns) / 1e6, "ms");
  m.set("admission.queue_ms_p99", quantile(w.queue_ns, 0.99) / 1e6, "ms");
  m.set("admission.submit_ns_p99", quantile(w.submit_ns, 0.99), "ns");
  const std::uint64_t formed = [&] {
    for (const auto& [name, v] : delta.counters) {
      if (name == "admission.batches_formed_total") return v;
    }
    return std::uint64_t{0};
  }();
  m.set("admission.batch_fill",
        formed ? static_cast<double>(w.txns) /
                     (static_cast<double>(formed) * s.cfg.batch_size)
               : 0,
        "frac");
  m.set("client.gen_lag_ms_p99", quantile(w.lag_ns, 0.99) / 1e6, "ms");
  m.set("client.e2e_p99_ms", quantile(w.e2e_ns, 0.99) / 1e6, "ms");
  m.set("client.e2e_samples", static_cast<double>(w.e2e_ns.size()), "count");
  m.set("workload.gen_ns_per_txn",
        static_cast<double>(w.gen_ns) / static_cast<double>(w.txns), "ns");
  registry_metrics(delta, w.txns, o.seconds, s.cfg, m);

  if (o.trace) {
    // At a fixed offered rate tracing shows up as latency, not throughput.
    m.set("trace.overhead_frac",
          median(win[kTraced].e2e_ns) / median(w.e2e_ns) - 1.0, "frac");
  }
  return rec;
}

std::uint64_t recover_log(const workload_spec& s, const std::string& log_dir,
                          instance& fresh, metric_set& m) {
  // Replay through a non-durable engine: a durable one would log the
  // replay into the directory being recovered.
  common::config cfg = s.cfg;
  cfg.durable = false;
  cfg.log_dir.clear();
  fresh.eng = proto::make_engine("quecc", *fresh.db, cfg);
  const std::uint64_t t0 = common::now_nanos();
  const log::recovery_result res = log::recover(
      log_dir, *fresh.db, *fresh.eng, log::resolver_for(*fresh.w));
  const double secs = static_cast<double>(common::now_nanos() - t0) / 1e9;
  m.set("recovery_s", secs, "s");
  m.set("recovery.replay_tps", static_cast<double>(res.txns_applied) / secs,
        "1/s");
  m.set("recovery.batches_replayed", res.batches_replayed, "count");
  fresh.eng.reset();
  return res.state_hash;
}

}  // namespace quecc::e2e
