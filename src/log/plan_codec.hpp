// Plan codec: versioned binary (de)serialization of planned batches.
//
// The durability corollary of the paradigm (paper Section 3.2; README
// "Durability & recovery"):
// execution is a deterministic function of the planned batch, so logging
// the *plan* — procedure, arguments, fragments, sequence order — is a
// complete command log. No per-row redo/undo images are ever written;
// recovery simply re-runs the planned batch through the engine's two
// deterministic phases. This realizes Gray's "Queues Are Databases"
// observation: the durable plan queue is the system of record.
//
// Serialized plans reference procedures by *name* (txn::procedure::name),
// because function pointers do not survive a process. Decoding rebinds the
// names through a proc_resolver, normally built from the workload that
// owns the procedures (see log/recovery.hpp::resolver_for).
//
// Fragment `rid` fields are deliberately not serialized: the planning
// phase re-resolves row ids by index lookup on every run, so a decoded
// plan replays on any database with the right logical contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "txn/batch.hpp"

namespace quecc::log {

/// Bump when the wire format changes; decoders reject other versions.
/// v2: fragments carry the scan upper bound `key_hi` and admit
/// op_kind::scan.
inline constexpr std::uint32_t kCodecVersion = 2;

/// Thrown by every decoder on malformed, truncated, or unresolvable input.
class codec_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Rebinds a serialized procedure name to the live procedure instance.
/// Returning nullptr makes the decoder throw codec_error.
using proc_resolver =
    std::function<const txn::procedure*(const std::string&)>;

/// Append the encoded form of `b` (every txn's procedure name, args, and
/// fragments, in sequence order) to `out`.
void encode_batch(const txn::batch& b, std::vector<std::byte>& out);

/// Decode a batch previously produced by encode_batch. The returned batch
/// carries the original batch id and sequence numbers and has passed
/// txn::validate_plan for every transaction.
txn::batch decode_batch(std::span<const std::byte> in,
                        const proc_resolver& procs);

/// Payload of a commit record: what the engine knew at the commit barrier.
struct commit_info {
  std::uint32_t batch_id = 0;
  std::uint32_t txn_count = 0;   ///< transactions in the batch
  std::uint32_t committed = 0;   ///< committed at the barrier
  std::uint32_t aborted = 0;     ///< deterministic logic aborts
  /// Cumulative transactions through this batch since the engine started —
  /// the position in the client stream, which recovery reports so a caller
  /// can resume the remainder of a deterministic workload.
  std::uint64_t stream_pos = 0;
  /// database::state_hash after the batch, or 0 when hash recording is off
  /// (config::log_verify_hash). Recovery verifies nonzero hashes.
  std::uint64_t state_hash = 0;
};

void encode_commit(const commit_info& c, std::vector<std::byte>& out);
commit_info decode_commit(std::span<const std::byte> in);

/// CRC-32 (IEEE, reflected) over `data` — frames every log record and
/// checkpoint file so torn or corrupt tails are detected, never replayed.
/// Computed eight bytes at a time (slicing-by-8); the value is the classic
/// byte-wise one.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;

}  // namespace quecc::log
