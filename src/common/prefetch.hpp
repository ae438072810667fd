// Software prefetch of a byte range: starts the load of every cache line
// the range overlaps and returns without waiting for any of them. A hint
// only — it never faults and never changes what the program computes.
#pragma once

#include <cstdint>

namespace flexnet {

inline constexpr std::uintptr_t kCacheLine = 64;

/// Starts loading every line overlapping [begin, end). The walk steps in
/// integer space, so no pointer outside the range is ever formed.
inline void prefetch_lines(const void* begin, const void* end) {
  const auto stop = reinterpret_cast<std::uintptr_t>(end);
  for (std::uintptr_t at =
           reinterpret_cast<std::uintptr_t>(begin) & ~(kCacheLine - 1);
       at < stop; at += kCacheLine)
    __builtin_prefetch(reinterpret_cast<const void*>(at));
}

}  // namespace flexnet
