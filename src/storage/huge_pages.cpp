#include "storage/huge_pages.hpp"

#include <sys/mman.h>

namespace quecc::storage {

void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  const std::size_t whole = bytes & ~(kHugePage - 1);
  if (whole != 0) (void)::madvise(p, whole, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace quecc::storage
