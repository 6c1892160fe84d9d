#include "harness/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "protocols/session.hpp"

namespace quecc::harness {

namespace {

run_result run_closed_loop(proto::engine& eng, wl::workload& w,
                           storage::database& db, const run_options& opts) {
  run_result out;
  common::rng r(opts.seed);
  // Drive the engine through its pipelined API, keeping up to its
  // pipeline depth batches in flight: batch i+1 is generated and planned
  // while batch i executes (generation overlaps engine work that is
  // already pending, so it hides inside the pipeline's busy windows).
  // Depth-1 engines (submit_batch == run_batch) follow the exact
  // sequence the old loop produced. Batches park in a deque — stable
  // addresses, at most `depth` alive — until their drain retires them.
  const std::uint32_t depth = std::max<std::uint32_t>(1, eng.pipeline_depth());
  std::deque<txn::batch> inflight;
  std::uint32_t next = 0;
  auto drain_one = [&] {
    eng.drain_batch();
    inflight.pop_front();
    if (opts.durability) {
      // Per-batch durable ack. While more batches are in flight the
      // engine's next drain-to-drain window already spans this wait; when
      // the pipeline just emptied (always, at depth 1) nothing else will
      // account for it, so charge it to elapsed time here — durable
      // closed-loop throughput must include the fsyncs it pays for.
      common::stopwatch sync_sw;
      eng.sync_durable();
      if (inflight.empty()) {
        out.metrics.elapsed_seconds += sync_sw.seconds();
      }
    }
  };
  while (next < opts.batches || !inflight.empty()) {
    if (next < opts.batches && inflight.size() < depth) {
      inflight.push_back(w.make_batch(r, opts.batch_size, next));
      ++next;
      eng.submit_batch(inflight.back(), out.metrics);
    } else {
      drain_one();
    }
  }
  out.final_state_hash = db.state_hash();
  return out;
}

run_result run_open_loop(proto::engine& eng, wl::workload& w,
                         storage::database& db, const run_options& opts) {
  if (!(opts.offered_load_tps > 0)) {
    throw std::invalid_argument("open_loop requires offered_load_tps > 0");
  }
  run_result out;
  out.offered_load_tps = opts.offered_load_tps;

  common::config scfg;  // only the admission knobs matter to a session
  scfg.batch_size = opts.batch_size;
  scfg.batch_deadline_micros = opts.batch_deadline_micros;
  scfg.admission_capacity = opts.admission_capacity;

  // Workload generation uses opts.seed exactly like the closed loop, so an
  // open-loop run submits the *same* transaction stream; a separate rng
  // drives the arrival process so the plans don't depend on the timing.
  common::rng r(opts.seed);
  common::rng arrivals(opts.seed ^ 0x9e3779b97f4a7c15ull);
  const double rate = opts.offered_load_tps;

  // Pre-generate the whole stream so generation cost never pollutes the
  // arrival schedule: slip charged to queueing below is then admission
  // backpressure (real system queueing), not generator overhead.
  const std::uint64_t total = opts.total_txns();
  std::vector<std::unique_ptr<txn::txn_desc>> stream;
  stream.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i) stream.push_back(w.make_txn(r));

  common::stopwatch wall;
  std::uint64_t first_arrival = 0;
  std::uint64_t last_commit = 0;
  {
    proto::session s(eng, scfg);
    std::uint64_t next_arrival = common::now_nanos();
    for (auto& t : stream) {
      // Poisson process: exponential inter-arrival times.
      const double u = arrivals.next_double();
      next_arrival += static_cast<std::uint64_t>(
          -std::log1p(-u) / rate * 1e9);
      if (first_arrival == 0) first_arrival = next_arrival;
      const auto when = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(next_arrival));
      std::this_thread::sleep_until(when);
      // Charge latency from the *scheduled* arrival: if admission blocks
      // (queue full) or the submitter slips, clients still experienced it.
      // Fire-and-forget: nobody waits per-txn, the histograms aggregate.
      if (!s.post(std::move(t), next_arrival)) {
        // Mirror the closed-loop path, where batch::validate() throws on a
        // malformed plan — never drop transactions silently.
        throw std::logic_error("open_loop: workload produced a plan the "
                               "session rejected");
      }
    }
    s.close();  // drain everything through the engine
    out.metrics = s.metrics();
    last_commit = s.last_commit_nanos();
  }
  // Achieved throughput is measured from the first scheduled arrival to
  // the last batch commit: the drain of work still in flight after the
  // final arrival counts (otherwise an over-capacity run would report
  // achieved ~= offered, since every commit lands but the clock stopped
  // at the last submit), while session startup, stream pre-generation,
  // and the session's thread joins stay excluded.
  out.metrics.elapsed_seconds = last_commit > first_arrival
                                    ? (last_commit - first_arrival) / 1e9
                                    : wall.seconds();
  out.final_state_hash = db.state_hash();
  return out;
}

}  // namespace

run_result run_workload(proto::engine& eng, wl::workload& w,
                        storage::database& db, const run_options& opts) {
  run_result out = opts.mode == arrival_mode::open_loop
                       ? run_open_loop(eng, w, db, opts)
                       : run_closed_loop(eng, w, db, opts);
  // Per-engine outcome counters at the one choke point every protocol
  // passes through: name-spaced on engine::name() so a comparison run
  // (e.g. table2) reports each engine's commits/aborts separately.
  const std::string prefix = std::string("engine.") + eng.name();
  obs::counter(prefix + ".committed_total").inc(out.metrics.committed);
  obs::counter(prefix + ".user_aborts_total").inc(out.metrics.aborted);
  obs::counter(prefix + ".cc_aborts_total").inc(out.metrics.cc_aborts);
  obs::counter(prefix + ".batches_total").inc(out.metrics.batches);
  return out;
}

}  // namespace quecc::harness
