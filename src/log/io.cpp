#include "log/io.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace quecc::log {

void checked_fsync(int fd, const char* site) noexcept {
  if (::fsync(fd) == 0) return;
  const int err = errno;
  std::fprintf(stderr, "quecc: fsync failed at %s: %s\n", site,
               std::strerror(err));
  std::abort();
}

}  // namespace quecc::log
