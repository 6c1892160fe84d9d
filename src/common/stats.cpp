#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace quecc::common {

namespace {
/// Bucket index: floor(log2(ns)), clamped to the table size.
std::size_t bucket_of(std::uint64_t ns) noexcept {
  if (ns == 0) return 0;
  const auto b = static_cast<std::size_t>(63 - std::countl_zero(ns));
  return std::min(b, latency_histogram::kBuckets - 1);
}

}  // namespace

void latency_histogram::record_nanos(std::uint64_t ns) noexcept {
  ++buckets_[bucket_of(ns)];
  ++count_;
  sum_ += ns;
}

void latency_histogram::merge(const latency_histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

void latency_histogram::merge_bucket_counts(const std::uint64_t* buckets,
                                            std::uint64_t count,
                                            std::uint64_t sum_ns) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += buckets[i];
  count_ += count;
  sum_ += sum_ns;
}

void latency_histogram::reset() noexcept {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
}

double latency_histogram::mean_nanos() const noexcept {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

double latency_histogram::bucket_lower_nanos(std::size_t b) noexcept {
  return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
}

double latency_histogram::percentile_nanos(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  const double rank = q / 100.0 * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (static_cast<double>(before + n) > rank) {
      // Interpolate within bucket [lower, upper): the rank's position
      // among the bucket's n samples, each placed at its interval
      // midpoint — a lone sample lands on the bucket's linear midpoint.
      const double lo = bucket_lower_nanos(i);
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      const double frac =
          (rank - static_cast<double>(before) + 0.5) / static_cast<double>(n);
      return lo + frac * (hi - lo);
    }
    before += n;
  }
  return bucket_lower_nanos(kBuckets - 1);  // unreachable: count_ > 0
}

std::string latency_histogram::summary() const {
  std::ostringstream os;
  os << "mean=" << mean_nanos() / 1e3 << "us p50="
     << percentile_nanos(50) / 1e3 << "us p99=" << percentile_nanos(99) / 1e3
     << "us";
  return os.str();
}

void run_metrics::merge_txn_outcomes(const run_metrics& worker) {
  committed += worker.committed;
  aborted += worker.aborted;
  cc_aborts += worker.cc_aborts;
  txn_latency.merge(worker.txn_latency);
}

void run_metrics::merge(const run_metrics& other) {
  merge_txn_outcomes(other);
  batches += other.batches;
  messages += other.messages;
  elapsed_seconds = std::max(elapsed_seconds, other.elapsed_seconds);
  plan_busy_seconds += other.plan_busy_seconds;
  exec_busy_seconds += other.exec_busy_seconds;
  epilogue_busy_seconds += other.epilogue_busy_seconds;
  pipeline_overlap_seconds += other.pipeline_overlap_seconds;
  queue_latency.merge(other.queue_latency);
  e2e_latency.merge(other.e2e_latency);
}

std::string run_metrics::summary(const std::string& label) const {
  std::ostringstream os;
  os << label << ": " << static_cast<std::uint64_t>(throughput())
     << " txn/s, committed=" << committed << ", user_aborts=" << aborted
     << ", cc_aborts=" << cc_aborts << ", batches=" << batches;
  if (messages > 0) os << ", msgs=" << messages;
  os << ", exec{" << txn_latency.summary() << "}";
  if (plan_busy_seconds > 0 || exec_busy_seconds > 0) {
    os << ", stages{plan_busy=" << std::fixed << std::setprecision(3)
       << plan_busy_seconds << "s exec_busy=" << exec_busy_seconds
       << "s epilogue_busy=" << epilogue_busy_seconds
       << "s overlap=" << pipeline_overlap_seconds << "s}";
    os.unsetf(std::ios_base::floatfield);
  }
  if (queue_latency.count() > 0) {
    os << ", queue{" << queue_latency.summary() << "}";
  }
  if (e2e_latency.count() > 0) {
    os << ", e2e{" << e2e_latency.summary() << "}";
  }
  return os.str();
}

}  // namespace quecc::common
