// End-to-end benchmark program (quecc_bench): shared declarations.
//
// quecc_bench exercises the engine only through its public API —
// proto::make_engine, submit_batch / drain_batch, proto::session::submit_at,
// log::recover, core::planner::plan, storage::table lookups and visits, and
// the obs metric / trace snapshots — and times every call from outside.
// Nothing here adds tracing inside the engine. README.md lists the
// workloads, the metric definitions, and which layer metric should move
// which end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "obs/metrics.hpp"
#include "protocols/iface.hpp"
#include "storage/database.hpp"
#include "workload/tpcc.hpp"
#include "workload/ycsb.hpp"

namespace quecc::e2e {

struct options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;   ///< measured phase length
  bool trace = false;    ///< add a traced phase and report per-layer metrics
  bool smoke = false;    ///< shrunken sizes, same code paths and gates
  std::string work_dir = ".";  ///< durable log and default trace location
  std::string trace_out;       ///< Chrome trace path of the traced phase
};

enum class generator { ycsb, tpcc };

/// One named workload: generator parameters, engine configuration, and the
/// shape of the load the bench thread offers.
struct workload_spec {
  std::string name;
  generator gen = generator::ycsb;
  wl::ycsb_config ycsb;
  wl::tpcc_config tpcc;
  common::config cfg;
  /// Batch size of the closed loop, the serial oracle, and the planner
  /// probe (the open loop's admission batch cap is cfg.batch_size).
  std::uint32_t batch_size = 8192;

  // Closed loop: chunks of chunk_batches batches, generated untimed.
  std::uint32_t chunk_batches = 8;
  /// Nonzero: the closed loop's phases are fixed work, work_rate
  /// transactions per second of phase length, so every run inserts the
  /// same rows (TPC-C sizes its insert capacity from it); a phase still
  /// stops at kSafetyFactor times its length. 0: phases are timed.
  double work_rate = 0;

  // Open loop: Poisson arrivals at offered_tps.
  bool open_loop = false;
  double offered_tps = 0;
  double warmup_seconds = 0;

  /// Length of the traced phase (--trace). Shorter than the measured
  /// phase so no thread's trace ring wraps.
  double traced_seconds = 0;
};

/// Chunks a closed loop's measured phase runs even past its time or work.
inline constexpr std::size_t kMinMeasuredChunks = 3;
/// A fixed-work phase stops at this many times its nominal length.
inline constexpr double kSafetyFactor = 4;

/// Build the named workload for `o` (throws std::invalid_argument on an
/// unknown name).
workload_spec make_spec(const options& o);

/// Every workload name make_spec accepts.
std::vector<std::string> workload_names();

/// A loaded database, its generator, and optionally an engine over it.
/// Members are destroyed engine first, then database, then generator.
struct instance {
  std::unique_ptr<wl::workload> w;
  std::unique_ptr<storage::database> db;
  std::unique_ptr<proto::engine> eng;
};

/// Load a fresh database and, when `engine` is non-null, construct that
/// engine over it with `cfg`. Returns the wall seconds both took.
double set_up(const workload_spec& s, const common::config& cfg,
              const char* engine, instance& out);

/// Named measurements with units, name-sorted.
class metric_set {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& items()
      const noexcept {
    return items_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> items_;
};

/// Final state of one transaction of the stream, in stream order.
enum outcome : std::uint8_t {
  aborted = 0,
  committed = 1,
  lost = 2,  ///< rejected at submission or never resolved
};

/// A span recorded by the bench thread around a call into the engine.
struct bench_span {
  const char* name = "";
  std::uint64_t start_nanos = 0;
  std::uint64_t dur_nanos = 0;
  std::uint64_t batch = ~std::uint64_t{0};  ///< unknown when all ones
};

/// Machine-speed probe: eight independent pointer chases through a fixed
/// random cycle over a 32 MB buffer, about 3 ms per call. On the shared
/// reference box the memory system's speed drifts by up to 20% over
/// minutes. Closed-loop chunks and set-up repetitions are bracketed by
/// probes and their times scaled to the reference speed (README.md,
/// "Noise").
class speed_probe {
 public:
  /// Probe time of the reference box (4-vCPU Xeon VM) at its median speed.
  static constexpr double kReferenceNs = 16.0;

  speed_probe();
  /// Nanoseconds per access of one probe run.
  double ns_per_access() const;

 private:
  std::vector<std::uint32_t> next_;
};

/// What a load loop hands back: per-layer and end-to-end measurements
/// plus the per-transaction outcomes the oracle checks.
struct run_record {
  metric_set metrics;
  std::vector<std::uint8_t> outcomes;
  std::vector<bench_span> spans;  ///< traced phase only
};

/// Closed loop over `live` (engine constructed): warm-up chunk, measured
/// chunks, and with o.trace a traced phase. `probe` runs beside every
/// chunk.
run_record run_closed_loop(const workload_spec& s, const options& o,
                           instance& live, const speed_probe& probe);

/// Open loop through a proto::session over `live`: warm-up, measured, and
/// with o.trace a traced window of Poisson arrivals. Closes the session
/// (every admitted transaction drained and durable) before returning.
run_record run_open_loop(const workload_spec& s, const options& o,
                         instance& live);

/// Replay `log_dir` into `fresh` (loaded, no engine) through a
/// non-durable quecc engine, timing log::recover. Returns the recovered
/// state hash.
std::uint64_t recover_log(const workload_spec& s, const std::string& log_dir,
                          instance& fresh, metric_set& m);

// --- probes and attribution (probes.cpp) -----------------------------------

/// Time core::planner::plan alone on freshly generated batches.
void probe_planner(const workload_spec& s, instance& live, std::uint64_t seed,
                   metric_set& m);

/// Time table lookups and range visits, and report the row-slot
/// allocation ratios of the TPC-C insert tables.
void probe_storage(const workload_spec& s, const storage::database& db,
                   std::uint64_t seed, metric_set& m);

/// Counter / histogram deltas between two registry snapshots.
obs::metrics_snapshot registry_delta(const obs::metrics_snapshot& before,
                                     const obs::metrics_snapshot& after);

/// Per-layer metrics derived from a registry delta covering `txns`
/// transactions and `wall_s` seconds of driving time.
void registry_metrics(const obs::metrics_snapshot& d, std::uint64_t txns,
                      double wall_s, const common::config& cfg,
                      metric_set& m);

/// Merge the engine's spans (obs::snapshot_trace) with the bench spans,
/// write them as a Chrome trace to `path`, and add per-stage self time
/// (interval containment per thread) to `m`. Throws when a trace ring
/// wrapped, since self times would then undercount.
void attribute_trace(const std::vector<bench_span>& bench,
                     const std::string& path, metric_set& m);

// --- small statistics helpers ----------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
/// (Q3 - Q1) / median; 0 when the median is 0.
double iqr_frac(const std::vector<double>& v);
/// Peak resident set of the process so far, in MB (getrusage).
double peak_rss_mb();

}  // namespace quecc::e2e
