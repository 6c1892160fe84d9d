// Shared helpers for the experiment benches.
//
// Every bench binary reproduces one row/figure from the paper (named in
// each bench's header comment) by running engines over identical
// transaction streams and printing a paper-style result table. Set
// QUECC_BENCH_QUICK=1 to shrink workloads for smoke runs.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "protocols/iface.hpp"
#include "workload/workload.hpp"

namespace quecc::benchutil {

/// Scratch directory (e.g. a durable engine's log dir), removed on scope
/// exit — RAII so a throwing bench run cannot leak it.
struct scratch_dir {
  scratch_dir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "quecc-bench-XXXXXX")
                           .string();
    if (::mkdtemp(tmpl.data()) == nullptr) std::abort();
    path = tmpl;
  }
  ~scratch_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  scratch_dir(const scratch_dir&) = delete;
  scratch_dir& operator=(const scratch_dir&) = delete;
  std::string path;
};

/// Closed-loop run options at bench scale, shrunk under QUECC_BENCH_QUICK.
inline harness::run_options scaled(std::uint32_t batches,
                                   std::uint32_t batch_size) {
  harness::run_options o;
  if (std::getenv("QUECC_BENCH_QUICK") != nullptr) {
    o.batches = 2;
    o.batch_size = std::min<std::uint32_t>(batch_size, 256);
  } else {
    o.batches = batches;
    o.batch_size = batch_size;
  }
  return o;
}

/// Run `engine_name` over a fresh database + workload instance (so every
/// engine sees an identical, independent transaction stream) and return
/// aggregated metrics. Works for both arrival modes: set opts.mode /
/// opts.offered_load_tps for an open-loop run; opts.seed picks the
/// transaction stream (default 42, shared by every bench).
inline common::run_metrics run_engine(
    const std::string& engine_name, const common::config& cfg,
    const std::function<std::unique_ptr<wl::workload>()>& make_workload,
    const harness::run_options& opts) {
  auto w = make_workload();
  storage::database db;
  w->load(db);
  auto eng = proto::make_engine(engine_name, db, cfg);
  return harness::run_workload(*eng, *w, db, opts).metrics;
}

/// Machine-readable twin of every bench's printed table: collect one entry
/// per measured run, then write() emits `BENCH_<name>.json` —
///
///   { "schema": "quecc-bench-v1", "bench": "<name>", "quick": bool,
///     "results": [ { "label": ..., "params": {k: v, ...},
///                    "run": <harness::write_run_metrics_json shape> } ],
///     "counters"/"gauges"/"histograms": <obs registry scrape> }
///
/// The file lands in $QUECC_BENCH_JSON_DIR (default: the working
/// directory). CI validates at least one of these per run.
class json_report {
 public:
  explicit json_report(std::string bench_name)
      : name_(std::move(bench_name)) {}

  /// One measured configuration. `params` are the sweep coordinates
  /// ("depth": 2, "theta": 0.9, ...) that locate the row in its figure.
  void add(std::string label,
           std::vector<std::pair<std::string, double>> params,
           const common::run_metrics& m) {
    entries_.push_back({std::move(label), std::move(params), m});
  }

  /// Write BENCH_<name>.json; returns the path (empty on I/O failure).
  std::string write() const {
    const char* dir = std::getenv("QUECC_BENCH_JSON_DIR");
    const std::filesystem::path out_path =
        std::filesystem::path(dir != nullptr ? dir : ".") /
        ("BENCH_" + name_ + ".json");
    std::ofstream os(out_path);
    if (!os) return {};
    obs::json_writer w(os);
    w.begin_object();
    w.kv("schema", "quecc-bench-v1");
    w.kv("bench", name_);
    w.kv("quick", std::getenv("QUECC_BENCH_QUICK") != nullptr);
    w.key("results");
    w.begin_array();
    for (const auto& e : entries_) {
      w.begin_object();
      w.kv("label", e.label);
      w.key("params");
      w.begin_object();
      for (const auto& [k, v] : e.params) w.kv(k, v);
      w.end_object();
      w.key("run");
      harness::write_run_metrics_json(w, e.metrics);
      w.end_object();
    }
    w.end_array();
    obs::write_metrics_sections(w);
    w.end_object();
    os << '\n';
    return out_path.string();
  }

 private:
  struct entry {
    std::string label;
    std::vector<std::pair<std::string, double>> params;
    common::run_metrics metrics;
  };
  std::string name_;
  std::vector<entry> entries_;
};

}  // namespace quecc::benchutil
