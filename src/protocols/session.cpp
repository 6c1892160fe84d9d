#include "protocols/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/thread_util.hpp"
#include "txn/procedure.hpp"

namespace quecc::proto {

session::ticket::result session::ticket::wait() const {
  result r;
  if (!st_) return r;
  st_->wait();
  r.status = st_->status;
  r.queue_nanos = st_->queue_nanos;
  r.e2e_nanos = st_->e2e_nanos;
  r.slots = st_->slots;
  return r;
}

namespace {
const common::config& checked(const common::config& cfg) {
  // A zero batch_size would make the submitter mistake pop_batch's empty
  // result for "closed and drained" and exit — every later ticket.wait()
  // would hang. Fail loudly instead; the engine validates its own copy,
  // but the session's cfg is a separate parameter.
  if (cfg.batch_size == 0) throw std::invalid_argument("batch_size == 0");
  if (cfg.admission_capacity == 0) {
    throw std::invalid_argument("admission_capacity == 0");
  }
  return cfg;
}
}  // namespace

session::session(engine& eng, const common::config& cfg)
    : eng_(eng),
      queue_(checked(cfg).admission_capacity, cfg.admission_session_cap),
      former_(queue_, cfg) {
  submitter_ = std::thread([this] { submitter_main(); });
  completer_ = std::thread([this] { completer_main(); });
}

session::~session() { close(); }

session::ticket session::submit(std::unique_ptr<txn::txn_desc> t,
                                std::uint32_t client) {
  return submit_at(std::move(t), 0, client);
}

// Reject malformed plans on the client's thread: batch::validate()
// throwing on the session's submitter thread would terminate the process.
bool session::prepare(const std::unique_ptr<txn::txn_desc>& t) {
  if (t == nullptr || t->proc == nullptr) return false;
  // validate_plan checks output slots against the runtime slot vector,
  // which batch::add sizes from the procedure — size it up front.
  t->resize_slots(t->proc->slot_count());
  try {
    txn::validate_plan(*t);
  } catch (const std::logic_error&) {
    return false;
  }
  return true;
}

session::ticket session::submit_at(std::unique_ptr<txn::txn_desc> t,
                                   std::uint64_t submit_nanos,
                                   std::uint32_t client) {
  auto st = std::make_shared<core::ticket_state>();
  if (!prepare(t)) {
    st->complete(txn::txn_status::aborted, 0, 0);
    return ticket{std::move(st)};
  }
  core::admitted_txn a{std::move(t), st, submit_nanos, client};
  if (!queue_.submit(std::move(a))) return ticket{};  // closed
  return ticket{std::move(st)};
}

bool session::post(std::unique_ptr<txn::txn_desc> t,
                   std::uint64_t submit_nanos, std::uint32_t client) {
  if (!prepare(t)) return false;
  core::admitted_txn a{std::move(t), nullptr, submit_nanos, client};
  return queue_.submit(std::move(a));
}

void session::close() {
  // call_once makes concurrent close() calls safe: one caller joins, the
  // others block until it is done. (As with any object, no call — close()
  // included — may race the destructor itself.) Closing the queue ends the
  // submitter once the former drained it; the completer ends once every
  // handed batch resolved.
  std::call_once(close_once_, [this] {
    queue_.close();
    if (submitter_.joinable()) submitter_.join();
    if (completer_.joinable()) completer_.join();
  });
}

void session::submitter_main() {
  common::name_self("quecc-submitter");
  // Keep at most the engine's pipeline depth of batches undrained, so the
  // engine's planners work on batch i+1 while batch i executes and
  // submit_batch never has to retire a batch itself. A depth-1 engine
  // therefore waits for the completer before the next batch forms.
  const std::uint64_t depth = std::max<std::uint32_t>(1, eng_.pipeline_depth());
  for (;;) {
    {
      common::mutex_lock lk(mu_);
      while (handed_ - drained_ >= depth) cv_.wait(lk);
    }
    auto f = former_.next();
    if (!f.valid) break;  // queue closed and drained
    inflight_batch* ib;
    {
      // Into the deque *before* submit: the engine keeps a pointer to the
      // batch until its drain.
      common::mutex_lock lk(mu_);
      inflight_.push_back({std::move(f), 0});
      ib = &inflight_.back();
    }
    ib->engine_nanos = common::now_nanos();
    eng_.submit_batch(ib->f.batch, metrics_);
    {
      // Only now is the batch the completer's: a depth-1 engine runs the
      // whole batch inside submit_batch.
      common::mutex_lock lk(mu_);
      ++handed_;
    }
    cv_.notify_all();
  }
  {
    common::mutex_lock lk(mu_);
    formed_all_ = true;
  }
  cv_.notify_all();
}

void session::completer_main() {
  common::name_self("quecc-completer");
  for (;;) {
    inflight_batch* ib;
    {
      common::mutex_lock lk(mu_);
      while (handed_ == drained_ && !formed_all_) cv_.wait(lk);
      if (handed_ == drained_) return;  // formed_all_: nothing left
      ib = &inflight_.front();
    }
    eng_.drain_batch();
    {
      // The engine's slot is free: the submitter may hand over the next
      // batch while this one waits for durability and resolves.
      common::mutex_lock lk(mu_);
      ++drained_;
    }
    cv_.notify_all();
    // Durable ack: tickets must not resolve before the batch's commit
    // record is on stable storage. The group-commit wait lands in e2e
    // latency (it is real client-visible time), not in the engine's
    // execution histogram. No-op for in-memory engines.
    eng_.sync_durable();
    const std::uint64_t done = common::now_nanos();
    last_commit_nanos_ = done;
    resolve(*ib, done);
    common::mutex_lock lk(mu_);
    inflight_.pop_front();
  }
}

void session::resolve(inflight_batch& ib, std::uint64_t done_nanos) {
  const std::uint64_t exec_start = ib.engine_nanos;
  for (std::size_t i = 0; i < ib.f.batch.size(); ++i) {
    const std::uint64_t submitted = ib.f.submit_nanos[i];
    const std::uint64_t queue_ns =
        exec_start > submitted ? exec_start - submitted : 0;
    const std::uint64_t e2e_ns =
        done_nanos > submitted ? done_nanos - submitted : 0;
    metrics_.queue_latency.record_nanos(queue_ns);
    metrics_.e2e_latency.record_nanos(e2e_ns);
    if (ib.f.tickets[i]) {
      const txn::txn_desc& t = ib.f.batch.at(i);
      auto& slots = ib.f.tickets[i]->slots;
      const auto n = static_cast<std::uint16_t>(t.slot_count());
      slots.resize(n);
      for (std::uint16_t k = 0; k < n; ++k) slots[k] = t.slot_value(k);
      ib.f.tickets[i]->complete(t.status.load(std::memory_order_acquire),
                                queue_ns, e2e_ns);
    }
  }
}

}  // namespace quecc::proto
