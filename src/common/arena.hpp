// Per-network memory arena.
//
// Every Network owns one Arena and draws all of its engine state from it
// through std::pmr containers: the flat router arrays, the InputBuffer word
// blocks, every EventLane ring, the PacketPool slab, the node arrays, the
// wheel bitmaps and the telemetry counters. build() allocates router by
// router, so one router's blocks sit next to each other.
//
// Memory comes from the OS (mmap) in chunks that double from kFirstChunk up
// to kMaxChunk (a request larger than the next chunk gets a chunk of its
// own size). A chunk of kHugePage (2 MB) or more is mapped 2 MB-aligned and
// advised for transparent huge pages (madvise(MADV_HUGEPAGE)); smaller
// chunks stay on base pages. The rule depends only on how much the
// network holds: a smoke-scale network stays below 2 MB and never gets a
// huge page, while a paper-scale one ends up with nearly all of its bytes
// in advised chunks, which takes most page walks out of its random-access
// allocation phase. Under THP "never" the advice is ignored and the arena
// behaves like any other allocator.
//
// Blocks are carved from the current chunk by a bump pointer, rounded to
// 16 bytes below 64 and to 64 bytes above (and aligned likewise: a Packet
// is one aligned cache line). A freed block joins an address-ordered set of
// free extents and coalesces with its free neighbours; a request takes the
// best fit among the extents and the bump region. Rings, queues and the
// pool slab grow by doubling, and at saturation they do it in waves: the
// blocks one wave frees sit side by side and merge into room for the next
// wave, so growth does not strand resident bytes. A free extent spanning
// whole huge pages hands them back to the OS (MADV_DONTNEED).
//
// Under AddressSanitizer every byte the arena has not handed out is
// poisoned — fresh chunk space, rounding slack past the requested size, and
// freed blocks — so overflows and use-after-free inside engine containers
// still report. The interface macros are no-ops in other builds.
//
// When the arena dies its chunks go to a small process-wide pool (64 MB at
// most) that the next arena draws from first, so the networks a sweep
// builds one after another reuse warm pages instead of faulting in fresh
// ones; the rest is unmapped. The arena itself is single-threaded by
// design (a Network belongs to one SweepRunner job), and it must outlive
// every container that draws from it (declare it first).
#pragma once

#include <cstddef>
#include <map>
#include <memory_resource>
#include <set>
#include <utility>
#include <vector>

namespace flexnet {

class Arena final : public std::pmr::memory_resource {
 public:
  /// Chunks of at least this size are huge-page aligned and advised.
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;
  static constexpr std::size_t kFirstChunk = std::size_t{64} << 10;
  static constexpr std::size_t kMaxChunk = std::size_t{64} << 20;

  /// One mapping taken from the OS (or from a dead arena).
  struct Chunk {
    char* base = nullptr;
    std::size_t size = 0;
    bool advised = false;  ///< got MADV_HUGEPAGE (size >= kHugePage)
  };

  Arena() = default;
  ~Arena() override;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bytes held from the OS, over all chunks.
  std::size_t os_bytes() const { return os_bytes_; }
  /// Bytes of the blocks currently handed out (rounded sizes).
  std::size_t used_bytes() const { return used_bytes_; }
  const std::vector<Chunk>& chunks() const { return chunks_; }
  std::size_t advised_chunks() const;

  /// Stops recycling: later frees only poison their block. The owner calls
  /// it when it starts tearing down, so its containers' frees skip the
  /// coalescing work and the chunks reach the pool with their pages warm.
  void retire() { retired_ = true; }

  /// Bytes a request of `bytes` occupies.
  static std::size_t block_size(std::size_t bytes);

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override;
  void do_deallocate(void* p, std::size_t bytes, std::size_t align) override;
  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }

  /// Maps a chunk and carves `size` bytes at `align` from it.
  char* refill(std::size_t size, std::size_t align);
  /// Best-fit block from the free extents, or nullptr when the bump
  /// region should serve the request.
  char* take_free(std::size_t size, std::size_t align);
  /// Block carved from the bump region, or nullptr when it is too small.
  char* bump(std::size_t size, std::size_t align);
  /// Returns [p, p + size) to the free extents, coalescing.
  void give_free(char* p, std::size_t size);
  void insert_free(char* p, std::size_t size);

  std::vector<Chunk> chunks_;
  char* cur_ = nullptr;  ///< bump region [cur_, end_) of a chunk
  char* end_ = nullptr;
  std::size_t next_chunk_ = kFirstChunk;
  std::size_t os_bytes_ = 0;
  std::size_t used_bytes_ = 0;
  bool retired_ = false;
  // Address order is the point here: it finds a freed block's neighbours.
  // Placement never reaches results (nothing iterates engine state by
  // address). flexnet-lint: allow(L3)
  std::map<char*, std::size_t> free_at_;  ///< free extents by address
  std::set<std::pair<std::size_t, char*>> free_by_size_;  ///< same, by size
};

}  // namespace flexnet
