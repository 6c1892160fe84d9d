// Transparent-huge-page backing for the storage layer's large arrays.
//
// Row slabs and hash-bucket arrays are read at random, one row and one
// bucket per fragment. On 4 KiB pages nearly every such access also misses
// the TLB, and a software prefetch (storage/prefetch.hpp) that misses it
// waits for the page walk before its line is requested: the executor's
// lookahead would hide the line fetch but not the walk. On ycsb-hot (2^20
// rows, 4-CPU box) backing both arrays with 2 MiB pages cut executor busy
// time per transaction by ~15% on its own, and the lookahead gained about
// twice as much on top of it (+8% throughput against +4%, three runs each).
//
// huge_page_allocator asks the kernel (madvise MADV_HUGEPAGE) to back the
// whole-2-MiB part of every allocation of at least 2 MiB with huge pages.
// It is a request only: where transparent huge pages are off, or none is
// free, the memory stays on 4 KiB pages and nothing else changes. The tail
// after the last whole huge page stays on small pages, so a partly used
// tail never pins a full huge page and resident memory stays what the
// 4 KiB layout had.
#pragma once

#include <cstddef>
#include <memory>
#include <new>

namespace quecc::storage {

inline constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// Ask for huge pages over the whole huge pages of [p, p + bytes); `p` is
/// kHugePage-aligned. Best effort: failures are ignored.
void advise_huge_pages(void* p, std::size_t bytes) noexcept;

/// std::allocator, except that blocks of kHugePage bytes or more are
/// kHugePage-aligned and advised onto huge pages (see top).
template <typename T>
class huge_page_allocator {
 public:
  using value_type = T;

  huge_page_allocator() noexcept = default;
  template <typename U>
  huge_page_allocator(const huge_page_allocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n < kHugePage / sizeof(T)) return std::allocator<T>{}.allocate(n);
    void* p = ::operator new(n * sizeof(T), std::align_val_t{kHugePage});
    advise_huge_pages(p, n * sizeof(T));
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n < kHugePage / sizeof(T)) {
      std::allocator<T>{}.deallocate(p, n);
    } else {
      ::operator delete(p, std::align_val_t{kHugePage});
    }
  }

  template <typename U>
  bool operator==(const huge_page_allocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace quecc::storage
