// Checked I/O for the durability path.
//
// A failed fsync leaves it unknown which written pages reached the disk,
// and on Linux the kernel may already have dropped the dirty pages and
// cleared the error, so retrying and succeeding proves nothing. Until the
// log can poison its writer and fail the pending acks, the only safe
// reaction is to stop the process before anything is acknowledged as
// durable: the fail-stop PostgreSQL adopted for the same failure class.
// Recovery then starts from what the disk really holds.
#pragma once

namespace quecc::log {

/// fsync `fd`; on failure print `site` and the error to stderr and abort.
/// Every fsync of the engine goes through here (scripts/lint.sh rule 5).
void checked_fsync(int fd, const char* site) noexcept;

}  // namespace quecc::log
