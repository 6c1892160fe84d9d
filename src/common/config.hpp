// Engine configuration knobs.
//
// One struct covers every engine in the repository so the harness can run
// apples-to-apples sweeps; individual engines read only the fields they
// understand. Section 3 of the paper calls out the configurations the
// paradigm must "seamlessly admit": speculative vs conservative execution
// and serializable vs read-committed isolation — those are first-class
// enums here.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace quecc::common {

/// Queue execution mechanism (paper Section 3.2, "Queue Execution
/// Mechanisms").
enum class exec_model : std::uint8_t {
  speculative,   ///< apply writes eagerly; cascading abort + re-execution
  conservative,  ///< updates wait for the txn's abortable fragments
};

/// Isolation level (paper Section 3.2, "Isolation Levels").
enum class isolation : std::uint8_t {
  serializable,
  read_committed,  ///< reads run against committed versions in extra queues
};

/// Thread-placement policy used when `pin_threads` is on (see
/// common/topology.hpp for the exact assignment each policy computes).
enum class pin_policy : std::uint8_t {
  none,     ///< legacy raw-index pinning (thread i -> cpu i mod #cpus)
  compact,  ///< executors pack node-major: partition runs beside its arena
  spread,   ///< executors round-robin across NUMA nodes
};

const char* to_string(exec_model m) noexcept;
const char* to_string(isolation i) noexcept;
const char* to_string(pin_policy p) noexcept;

/// Shared configuration for every engine, centralized and distributed.
struct config {
  // --- threading ---------------------------------------------------------
  worker_id_t planner_threads = 2;   ///< queue-oriented planning phase width
  worker_id_t executor_threads = 2;  ///< queue-oriented execution phase width
  worker_id_t worker_threads = 4;    ///< thread pool size for baselines
  bool pin_threads = false;          ///< best-effort CPU affinity
  /// Placement policy applied when pin_threads is on: compact co-locates a
  /// partition's executor with its arena's socket, spread maximizes memory
  /// bandwidth, none keeps the legacy raw-index pinning.
  pin_policy pin_mode = pin_policy::compact;
  /// Bind each storage arena's slab/meta pages on the NUMA node of the
  /// executor owning the arena's partition (mbind, best-effort; no-op on
  /// single-node machines). Independent of pin_threads, but only useful
  /// together with it.
  bool numa_bind = false;

  // --- batching ----------------------------------------------------------
  std::uint32_t batch_size = 1024;  ///< txns per deterministic batch
  /// Batch-pipeline depth of the queue-oriented engines: how many batches
  /// may be in flight at once. 1 = the paper's lockstep (plan, execute,
  /// commit, repeat); at >= 2 planners start on batch i+1 the moment batch
  /// i's queues are handed to the executors, overlapping the two Figure 1
  /// stages across batches. Execution and the commit epilogue stay
  /// sequential by batch id, so results are bit-identical at every depth.
  std::uint32_t pipeline_depth = 2;
  /// Third pipeline stage: run the commit epilogue's durable tail (WAL
  /// commit record + group-commit fsync wait) on a dedicated epilogue
  /// worker so exec(i+1) overlaps epilogue(i). The state-mutating half
  /// (speculative recovery, RC publish, checkpoints) always stays at the
  /// quiescent point, so results are bit-identical with this on or off.
  /// Effective only at pipeline_depth >= 2 — depth 1 has no batch to
  /// overlap with and degenerates to the inline epilogue either way.
  bool async_epilogue = true;

  // --- admission (async client path) -------------------------------------
  /// A batch former closes a batch on `batch_size` *or* this timer,
  /// whichever fires first, so a trickle of submissions still commits
  /// promptly (0 = close immediately with whatever has arrived). The timer
  /// is anchored at the oldest queued transaction's admission, so it bounds
  /// queue residence time, not time since the former noticed the batch.
  std::uint32_t batch_deadline_micros = 2000;
  /// Bounded depth of the client admission queue; submit() blocks when the
  /// queue is full (backpressure instead of unbounded memory growth).
  std::uint32_t admission_capacity = 1u << 16;
  /// Per-client-session cap on transactions waiting in the admission queue
  /// (0 = unlimited). With a cap below the queue capacity, one greedy
  /// session can no longer fill the whole queue and starve the others —
  /// its submits block while other sessions still find room.
  std::uint32_t admission_session_cap = 0;

  // --- durability (queue-oriented command log, src/log/) ------------------
  /// Log planned batches + commit records to `log_dir` and acknowledge
  /// clients only after the commit record is fsynced. Both queue-oriented
  /// engines implement this; the baselines ignore it. Requires a non-empty
  /// log_dir.
  bool durable = false;
  std::string log_dir;
  /// Group-commit window: fsyncs are coalesced so every record appended
  /// within one window shares a single fsync.
  std::uint32_t group_commit_micros = 200;
  /// Take a consistent snapshot + truncate the log every N batches
  /// (0 = never checkpoint; recovery then replays the whole log).
  std::uint32_t checkpoint_interval_batches = 0;
  /// Size-based log segment rotation threshold.
  std::uint64_t log_segment_bytes = 64ull << 20;
  /// Record database::state_hash in every commit record (full table scan
  /// per batch — test/debug aid, not a production default); recovery then
  /// verifies replay batch by batch.
  bool log_verify_hash = false;
  /// Reopen an existing log directory after recovery and continue
  /// appending in place (log_writer resume mode: the newest segment's torn
  /// tail is truncated and writing continues in a fresh segment). Without
  /// this a non-empty log directory is refused. Recovery-resume drivers
  /// (queccctl --recover) set it together with log_resume_stream_pos.
  bool log_resume = false;
  /// Stream position (cumulative transactions) the recovered log already
  /// covers; resumed commit records continue counting from here so a later
  /// recovery reports one consistent position.
  std::uint64_t log_resume_stream_pos = 0;

  // --- paradigm options --------------------------------------------------
  exec_model execution = exec_model::speculative;
  isolation iso = isolation::serializable;

  // --- storage -----------------------------------------------------------
  part_id_t partitions = 4;  ///< home-partition count (queue routing unit)

  // --- distributed simulation --------------------------------------------
  std::uint16_t nodes = 1;                ///< simulated node count
  std::uint32_t net_latency_micros = 50;  ///< one-way message latency

  // --- baseline-specific knobs --------------------------------------------
  /// H-Store: coordination cost charged per multi-partition transaction
  /// while the partitions are held (models the blocking 2PC voting rounds
  /// of the original system; ~2 IPC round trips).
  std::uint32_t hstore_coord_micros = 25;

  // --- misc ----------------------------------------------------------------
  std::uint64_t seed = 0x5eedu;  ///< workload / property-test seed

  /// Human-readable one-liner for logs and bench labels.
  std::string describe() const;

  /// Throws std::invalid_argument when fields are inconsistent (e.g. zero
  /// threads, zero partitions, nodes > partitions).
  void validate() const;
};

}  // namespace quecc::common
