#include "core/admission.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quecc::core {

namespace {
// Admission metric handles, shared by both submit paths and the former.
const obs::counter& admitted_total() {
  static const obs::counter c("admission.admitted_total");
  return c;
}
const obs::gauge& queue_depth_gauge() {
  static const obs::gauge g("admission.queue_depth");
  return g;
}
}  // namespace

admission_queue::admission_queue(std::size_t capacity,
                                 std::uint32_t session_cap)
    : capacity_(capacity == 0 ? 1 : capacity), session_cap_(session_cap) {}

bool admission_queue::has_room(const admitted_txn& t) const {
  if (q_.size() >= capacity_) return false;
  if (session_cap_ == 0) return true;
  const auto it = per_session_.find(t.client);
  return it == per_session_.end() || it->second < session_cap_;
}

bool admission_queue::submit(admitted_txn t) {
  if (t.submit_nanos == 0) t.submit_nanos = common::now_nanos();
  common::mutex_lock lk(mu_);
  while (!has_room(t) && !closed_) not_full_.wait(lk);
  if (closed_) {
    static const obs::counter rejected("admission.rejected_closed_total");
    rejected.inc();
    return false;
  }
  if (session_cap_ != 0) ++per_session_[t.client];
  q_.push_back(std::move(t));
  ++admitted_;
  queue_depth_gauge().set(static_cast<std::int64_t>(q_.size()));
  lk.unlock();
  admitted_total().inc();
  not_empty_.notify_one();
  return true;
}

bool admission_queue::try_submit(admitted_txn& t) {
  {
    common::mutex_lock lk(mu_);
    if (closed_ || !has_room(t)) {
      static const obs::counter rejected("admission.rejected_full_total");
      rejected.inc();
      return false;
    }
    if (t.submit_nanos == 0) t.submit_nanos = common::now_nanos();
    if (session_cap_ != 0) ++per_session_[t.client];
    q_.push_back(std::move(t));
    ++admitted_;
    queue_depth_gauge().set(static_cast<std::int64_t>(q_.size()));
  }
  admitted_total().inc();
  not_empty_.notify_one();
  return true;
}

std::vector<admitted_txn> admission_queue::pop_batch(
    std::uint32_t max, std::uint32_t deadline_micros) {
  std::vector<admitted_txn> out;
  if (max == 0) return out;
  out.reserve(max);

  common::mutex_lock lk(mu_);
  while (q_.empty() && !closed_) not_empty_.wait(lk);
  if (q_.empty()) return out;  // closed and drained

  // The deadline is anchored at the oldest transaction's admission stamp,
  // not at the moment the former first sees it: transactions that queued
  // while the consumer was busy elsewhere have already spent part of their
  // budget. Stamps share common::now_nanos's steady clock; the min guards
  // against caller-supplied stamps in the future.
  const std::uint64_t anchor =
      std::min(common::now_nanos(), q_.front().submit_nanos);
  const auto deadline = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(anchor) +
      std::chrono::microseconds(deadline_micros));
  for (;;) {
    const bool drained = !q_.empty() && out.size() < max;
    while (!q_.empty() && out.size() < max) {
      if (session_cap_ != 0) {
        const auto it = per_session_.find(q_.front().client);
        if (it != per_session_.end() && --it->second == 0) {
          per_session_.erase(it);
        }
      }
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    // Wake producers blocked on a full queue *before* parking on the
    // deadline wait: the capacity just freed lets them refill the batch
    // now, not a whole deadline later.
    if (drained) not_full_.notify_all();
    queue_depth_gauge().set(static_cast<std::int64_t>(q_.size()));
    if (out.size() >= max || closed_) break;
    bool have = false;
    while (!(have = !q_.empty() || closed_)) {
      if (not_empty_.wait_until(lk, deadline) == std::cv_status::timeout) {
        have = !q_.empty() || closed_;  // final check, like the std overload
        break;
      }
    }
    if (have) continue;  // new arrivals (or close): collect them
    // Deadline fired: close the partial batch (the trickle-latency bound
    // the file header describes doing real work).
    static const obs::counter deadline_closed(
        "admission.deadline_closed_batches_total");
    deadline_closed.inc();
    break;
  }
  return out;
}

void admission_queue::close() {
  {
    common::mutex_lock lk(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool admission_queue::closed() const {
  common::mutex_lock lk(mu_);
  return closed_;
}

std::size_t admission_queue::depth() const {
  common::mutex_lock lk(mu_);
  return q_.size();
}

std::uint32_t admission_queue::in_queue(std::uint32_t client) const {
  common::mutex_lock lk(mu_);
  const auto it = per_session_.find(client);
  return it == per_session_.end() ? 0 : it->second;
}

std::uint64_t admission_queue::admitted() const {
  common::mutex_lock lk(mu_);
  return admitted_;
}

batch_former::formed batch_former::next() {
  const std::uint64_t t0 = common::now_nanos();
  auto entries = q_.pop_batch(batch_size_, deadline_micros_);
  formed f;
  if (entries.empty()) return f;  // queue closed and drained

  f.valid = true;
  static const obs::counter formed_total("admission.batches_formed_total");
  formed_total.inc();
  // relaxed: single consumer allocates ids; nothing is published through it.
  f.batch.set_id(next_id_.fetch_add(1, std::memory_order_relaxed));
  f.tickets.reserve(entries.size());
  f.submit_nanos.reserve(entries.size());
  for (auto& e : entries) {
    // Plans are validated at admission (proto::session::prepare), not
    // here: re-validating every transaction on the single consumer thread
    // would sit on the submitter's critical path, and a throw from this
    // thread would terminate the process rather than fail one submission.
    f.batch.add(std::move(e.txn));
    f.tickets.push_back(std::move(e.ticket));
    f.submit_nanos.push_back(e.submit_nanos);
  }
  obs::record_span(obs::trace_stage::admission, t0, common::now_nanos() - t0,
                   f.batch.id());
  return f;
}

}  // namespace quecc::core
