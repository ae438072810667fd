// Software prefetch: of a byte range (starts the load of every cache line
// the range overlaps and returns without waiting for any of them), and
// of a worklist's dependent loads a few items ahead of its visits. Hints
// only — they never fault and never change what the program computes.
#pragma once

#include <cstddef>
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

/// Places between two rounds of for_each_ahead: enough visits to cover a
/// miss to memory before the next round reads its line. 2, 4 and 8
/// measured alike on the paper-scale link phases.
inline constexpr std::ptrdiff_t kAheadDistance = 4;

/// Runs `visit(id)` over ids[0, n) in order, starting beforehand the loads
/// each visit waits on. `ahead(k, id)` runs for every id in rounds k = 0 .. Rounds-1,
/// round k (Rounds - k) * kAheadDistance places ahead of the id's visit,
/// so each round can read the lines the round before started and start
/// the lines they point to: one link of a dependent-load chain per round.
/// `ahead` must only load and prefetch; the visits, and so every result,
/// are those of the plain loop.
template <int Rounds, typename Id, typename VisitFn, typename AheadFn>
void for_each_ahead(const Id* ids, std::size_t n, VisitFn&& visit,
                    AheadFn&& ahead) {
  static_assert(Rounds >= 1, "at least one round ahead");
  const auto count = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = -Rounds * kAheadDistance; i < count; ++i) {
    for (int k = 0; k < Rounds; ++k) {
      const std::ptrdiff_t j = i + (Rounds - k) * kAheadDistance;
      if (j >= 0 && j < count) ahead(k, ids[j]);
    }
    if (i >= 0) visit(ids[i]);
  }
}

}  // namespace flexnet
