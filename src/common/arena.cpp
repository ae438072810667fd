#include "common/arena.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <new>

namespace flexnet {

namespace {

constexpr std::size_t kPage = 4096;
/// A free extent at least this large is adopted as the bump region rather
/// than split block by block.
constexpr std::size_t kAdoptBytes = std::size_t{64} << 10;

std::uintptr_t align_up(std::uintptr_t v, std::size_t a) {
  return (v + a - 1) & ~static_cast<std::uintptr_t>(a - 1);
}

char* align_up(char* p, std::size_t a) {
  return reinterpret_cast<char*>(
      align_up(reinterpret_cast<std::uintptr_t>(p), a));
}

/// Alignment of a block of `size` (rounded) bytes.
std::size_t grain(std::size_t size) { return size < 64 ? 16 : 64; }

char* align_down(char* p, std::size_t a) {
  return reinterpret_cast<char*>(reinterpret_cast<std::uintptr_t>(p) &
                                 ~static_cast<std::uintptr_t>(a - 1));
}

/// Hands back to the OS the huge pages that freeing [p, p + size) left
/// wholly inside the free extent [lo, hi) — only those, so each page is
/// released once, when it becomes free.
void release_pages(char* p, std::size_t size, char* lo, char* hi) {
  char* from = std::max(align_up(lo, Arena::kHugePage),
                        align_down(p, Arena::kHugePage));
  char* to = std::min(align_down(hi, Arena::kHugePage),
                      align_up(p + size, Arena::kHugePage));
  if (to > from)
    madvise(from, static_cast<std::size_t>(to - from), MADV_DONTNEED);
}

/// Maps a fresh chunk. A huge one is over-mapped by one huge page and
/// trimmed to a 2 MB boundary at both ends, so every 2 MB of it can be one
/// huge page, and advised for THP — advice only: a kernel without THP (or
/// set to "never") ignores it.
char* map_chunk(std::size_t bytes, bool huge) {
  const std::size_t slack = huge ? Arena::kHugePage : 0;
  void* raw = mmap(nullptr, bytes + slack, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* lo = static_cast<char*>(raw);
  if (!huge) return lo;
  char* base = align_up(lo, Arena::kHugePage);
  if (base > lo) munmap(lo, static_cast<std::size_t>(base - lo));
  if (base < lo + slack)
    munmap(base + bytes, static_cast<std::size_t>(lo + slack - base));
  madvise(base, bytes, MADV_HUGEPAGE);
  return base;
}

/// Chunks of dead arenas, kept mapped (and warm) for the next arena of the
/// process: a sweep builds one network per job, and a rebuilt network then
/// reuses touched pages instead of faulting and zeroing fresh ones, the
/// way a malloc heap would. The chunk sequence is a function of the
/// network's size, so exact-size matches are the rule. At most kCapBytes
/// stay cached; the rest is unmapped. Shared by the sweep's worker
/// threads, hence the lock (taken only when a chunk is mapped or freed).
class ChunkPool {
 public:
  static constexpr std::size_t kCapBytes = std::size_t{64} << 20;

  char* take(std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = chunks_.find(bytes);
    if (it == chunks_.end()) return nullptr;
    char* base = it->second;
    chunks_.erase(it);
    bytes_ -= bytes;
    return base;
  }

  void give(char* base, std::size_t bytes) {
    ASAN_POISON_MEMORY_REGION(base, bytes);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (bytes_ + bytes <= kCapBytes) {
        chunks_.emplace(bytes, base);
        bytes_ += bytes;
        return;
      }
    }
    // The shadow outlives the mapping: leave it clean for whoever maps
    // these addresses next.
    ASAN_UNPOISON_MEMORY_REGION(base, bytes);
    munmap(base, bytes);
  }

 private:
  std::mutex mu_;
  std::multimap<std::size_t, char*> chunks_;  ///< by size
  std::size_t bytes_ = 0;
};

ChunkPool& chunk_pool() {
  // Never destroyed: arenas may die during static destruction.
  static ChunkPool* const pool = new ChunkPool;
  return *pool;
}

}  // namespace

std::size_t Arena::block_size(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 1);
  return static_cast<std::size_t>(align_up(bytes, grain(bytes)));
}

Arena::~Arena() {
  for (const Chunk& c : chunks_) chunk_pool().give(c.base, c.size);
}

std::size_t Arena::advised_chunks() const {
  return static_cast<std::size_t>(
      std::count_if(chunks_.begin(), chunks_.end(),
                    [](const Chunk& c) { return c.advised; }));
}

char* Arena::refill(std::size_t size, std::size_t align) {
  std::size_t bytes = std::max(next_chunk_, size + align);
  const bool huge = bytes >= kHugePage;
  bytes = align_up(bytes, huge ? kHugePage : kPage);
  char* base = chunk_pool().take(bytes);
  if (base == nullptr) base = map_chunk(bytes, huge);
  ASAN_POISON_MEMORY_REGION(base, bytes);
  chunks_.push_back(Chunk{base, bytes, huge});
  os_bytes_ += bytes;
  next_chunk_ = std::min(next_chunk_ * 2, kMaxChunk);
  // Carve this request from the new chunk. Its rest becomes the bump
  // region if it beats what the old one has left; the loser joins the
  // free extents.
  char* p = align_up(base, align);
  char* rest = p + size;
  char* rest_end = base + bytes;
  if (rest_end - rest > end_ - cur_) {
    std::swap(rest, cur_);
    std::swap(rest_end, end_);
  }
  if (rest_end > rest)
    give_free(rest, static_cast<std::size_t>(rest_end - rest));
  return p;
}

char* Arena::take_free(std::size_t size, std::size_t align) {
  // Best fit over the free extents and the bump region together: the bump
  // region serves while it is the tighter fit; a winning extent of
  // kAdoptBytes or more becomes the bump region (the old one joins the
  // extents), so runs of requests are carved at bump speed.
  char* const at = align_up(cur_, align);
  const bool bump_fits = cur_ != nullptr && at + size <= end_;
  const auto room = static_cast<std::size_t>(end_ - cur_);
  auto it = free_by_size_.lower_bound({size, nullptr});
  for (int tries = 0; it != free_by_size_.end() && tries < 4; ++it, ++tries) {
    const auto [extent, base] = *it;
    if (bump_fits && extent >= room) return nullptr;
    char* p = align_up(base, align);
    if (p + size > base + extent) continue;
    free_by_size_.erase(it);
    free_at_.erase(base);
    if (extent >= kAdoptBytes) {
      char* old = cur_;
      char* old_end = end_;
      cur_ = base;
      end_ = base + extent;
      if (old_end > old)
        give_free(old, static_cast<std::size_t>(old_end - old));
      return nullptr;
    }
    if (p > base) insert_free(base, static_cast<std::size_t>(p - base));
    if (p + size < base + extent)
      insert_free(p + size,
                  static_cast<std::size_t>(base + extent - (p + size)));
    return p;
  }
  return nullptr;
}

char* Arena::bump(std::size_t size, std::size_t align) {
  char* at = align_up(cur_, align);
  if (cur_ == nullptr || at + size > end_) return nullptr;
  if (at > cur_) give_free(cur_, static_cast<std::size_t>(at - cur_));
  cur_ = at + size;
  return at;
}

void Arena::insert_free(char* p, std::size_t size) {
  free_at_.emplace(p, size);
  free_by_size_.emplace(size, p);
}

void Arena::give_free(char* p, std::size_t size) {
  char* const freed = p;
  const std::size_t freed_size = size;
  // Coalesce with the free extents on either side, so the blocks a wave
  // of ring doublings frees merge into room for the next wave.
  auto next = free_at_.lower_bound(p);
  if (next != free_at_.end() && next->first == p + size) {
    size += next->second;
    free_by_size_.erase({next->second, next->first});
    next = free_at_.erase(next);
  }
  if (next != free_at_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second == p) {
      p = prev->first;
      size += prev->second;
      free_by_size_.erase({prev->second, prev->first});
      free_at_.erase(prev);
    }
  }
  if (size >= kHugePage) release_pages(freed, freed_size, p, p + size);
  if (p + size == cur_) {
    cur_ = p;  // the extent ends where the bump region starts
    return;
  }
  insert_free(p, size);
}

void* Arena::do_allocate(std::size_t bytes, std::size_t align) {
  const std::size_t size = block_size(bytes);
  align = std::max(align, grain(size));
  used_bytes_ += size;
  char* p = take_free(size, align);
  if (p == nullptr) p = bump(size, align);
  if (p == nullptr) p = refill(size, align);
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  return p;
}

void Arena::do_deallocate(void* p, std::size_t bytes,
                          std::size_t /*align*/) {
  const std::size_t size = block_size(bytes);
  ASAN_POISON_MEMORY_REGION(p, size);
  if (retired_) return;
  used_bytes_ -= size;
  give_free(static_cast<char*>(p), size);
}

}  // namespace flexnet
