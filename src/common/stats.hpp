// Metrics: counters, wall-clock timers, and latency histograms.
//
// The harness reports throughput (txns/s), abort counts, and latency
// percentiles — the "key performance metrics" named in Section 4 of the
// paper. Histograms use fixed log-scaled buckets so recording is wait-free
// per thread; aggregation merges per-thread instances.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/phase_annotations.hpp"

namespace quecc::common {

/// Monotonic clock reading in nanoseconds since an arbitrary epoch. All
/// latency metrics derive from this one clock choice.
QUECC_NONDET(
    "monotonic stats clock; readings feed latency metrics and stage-window "
    "accounting only, never transaction results, planned batches, or "
    "serialized state")
inline std::uint64_t now_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch.
class stopwatch {
 public:
  QUECC_NONDET("stats stopwatch; timings never influence execution")
  stopwatch() : start_(clock::now()) {}

  QUECC_NONDET("stats stopwatch; timings never influence execution")
  void restart() { start_ = clock::now(); }

  /// Elapsed time in seconds.
  QUECC_NONDET("stats stopwatch; timings never influence execution")
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed time in nanoseconds.
  QUECC_NONDET("stats stopwatch; timings never influence execution")
  std::uint64_t nanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Log-bucketed latency histogram covering 1ns .. ~1100s.
/// Recording is a single increment; not thread-safe by design — keep one
/// per worker and merge() at the end (CP.3: minimize shared writable data).
class latency_histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record_nanos(std::uint64_t ns) noexcept;
  /// Bucket-wise addition. Merging an empty histogram is a no-op; merging
  /// into an empty histogram reproduces `other` exactly (pinned by
  /// tests/test_common.cpp).
  void merge(const latency_histogram& other) noexcept;
  /// Raw-bucket merge for external per-thread shards (the obs registry
  /// aggregates atomic bucket cells into a plain histogram on scrape).
  /// `buckets` must point at kBuckets counts laid out like buckets_.
  void merge_bucket_counts(const std::uint64_t* buckets, std::uint64_t count,
                           std::uint64_t sum_ns) noexcept;
  void reset() noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum_nanos() const noexcept { return sum_; }
  std::uint64_t bucket_count(std::size_t b) const noexcept {
    return buckets_[b];
  }
  /// Lower bound of bucket b: 0 for b == 0, else 2^b nanoseconds. Bucket b
  /// holds samples in [lower, 2^(b+1)) (the last bucket also absorbs
  /// anything larger).
  static double bucket_lower_nanos(std::size_t b) noexcept;
  double mean_nanos() const noexcept;
  /// Percentile in nanoseconds, q clamped to [0, 100]. The rank is placed
  /// by linear interpolation *within* its log bucket (rank r among a
  /// bucket's n samples sits at the (r + 0.5)/n point of the bucket's
  /// span), so a single sample reports the bucket's linear midpoint and
  /// quantiles move smoothly instead of jumping between bucket midpoints.
  /// Exact values are still bucket-resolution estimates.
  double percentile_nanos(double q) const noexcept;

  std::string summary() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Per-run metrics emitted by engines and aggregated by the harness.
struct run_metrics {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;         ///< user/logic aborts (deterministic)
  std::uint64_t cc_aborts = 0;       ///< protocol-induced aborts + retries
  std::uint64_t batches = 0;
  std::uint64_t messages = 0;        ///< simulated network messages
  double elapsed_seconds = 0.0;
  /// Pipeline stage accounting (queue-oriented engines only). Busy times
  /// are summed across the stage's threads — at pipeline_depth >= 2 the
  /// per-batch wall-clock phases overlap across batches and stop adding
  /// up, so busy time is what summary() can still report truthfully.
  double plan_busy_seconds = 0.0;  ///< cumulative planner busy time
  double exec_busy_seconds = 0.0;  ///< cumulative executor busy time
  /// Cumulative commit-epilogue time (recovery + RC publish + commit
  /// record + durable wait). With the three-stage pipeline this runs on
  /// the epilogue worker, overlapped with the next batch's execution — so
  /// at depth >= 2 it stops being a subset of elapsed_seconds.
  double epilogue_busy_seconds = 0.0;
  /// Wall-clock overlap between batches' planning windows and earlier
  /// batches' execution windows — the time the two Figure 1 stages ran
  /// concurrently. 0 in lockstep (pipeline_depth == 1).
  double pipeline_overlap_seconds = 0.0;
  /// Engine latency, recorded by every engine; excludes any time spent
  /// waiting for admission. Queue engines: batch submission to the engine
  /// -> the transaction's last fragment, from the executors' completion
  /// stamps (accurate to 16 queue entries; none for a transaction that
  /// queued no entry). The baselines time their own execution.
  latency_histogram txn_latency;
  /// Queueing delay: client submit -> batch execution start. Recorded only
  /// on the async submission path (proto::session / open-loop harness).
  latency_histogram queue_latency;
  /// End-to-end latency: client submit -> batch commit. Recorded only on
  /// the async submission path; always >= the execution latency.
  latency_histogram e2e_latency;

  double throughput() const noexcept {
    return elapsed_seconds > 0 ? static_cast<double>(committed) /
                                     elapsed_seconds
                               : 0.0;
  }

  void merge(const run_metrics& other);
  /// Add a worker thread's per-transaction outcomes: committed, aborted,
  /// cc_aborts and txn_latency. Unlike merge() it leaves queue_latency and
  /// e2e_latency alone, which proto::session's completer records into the
  /// same run_metrics while an engine retires a batch.
  void merge_txn_outcomes(const run_metrics& worker);
  std::string summary(const std::string& label) const;
};

}  // namespace quecc::common
