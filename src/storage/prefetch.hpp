// Software-prefetch hints for the execution path.
//
// The queue-oriented plan fixes every record access of a batch before
// execution starts, so an executor knows the fragments and keys it will
// touch some queue entries ahead and can pull their memory in early (see
// core/executor.hpp). This header is the one place that calls
// __builtin_prefetch (scripts/lint.sh enforces it): callers either name an
// object they already hold a pointer to, or go through the storage API
// that owns the address arithmetic for keys (index_backend::prefetch,
// table::prefetch_key).
//
// A prefetch is only a hint. It never faults, reads no value and changes no
// state, so nothing may depend on it having run.
#pragma once

#include <cstddef>
#include <cstdint>

namespace quecc::storage {

inline constexpr std::size_t kCacheLine = 64;

/// Prefetch every cache line `obj` spans; `for_write` asks for the lines
/// in exclusive state, so a later store or atomic read-modify-write on
/// them need not wait for other cores' copies to be invalidated.
template <typename T>
void prefetch_object(const T& obj, bool for_write = false) noexcept {
  const auto first = reinterpret_cast<std::uintptr_t>(&obj);
  const auto last = first + sizeof(T) - 1;
  for (std::uintptr_t a = first & ~std::uintptr_t{kCacheLine - 1}; a <= last;
       a += kCacheLine) {
    const auto* line = reinterpret_cast<const void*>(a);
    if (for_write) {
      __builtin_prefetch(line, 1, 3);
    } else {
      __builtin_prefetch(line, 0, 3);
    }
  }
}

}  // namespace quecc::storage
