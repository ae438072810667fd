// Flat containers of the active-set simulation core.
//
// EventLane<T> is a growable power-of-two ring buffer used for the
// time-ordered FIFOs on the hot path: per-link in-flight packet and credit
// lanes, node source queues, and the router output pipelines (per-VC input
// queues keep their rings in one block per port, see InputBuffer). Events are
// pushed with non-decreasing readiness cycles (the simulation clock is
// monotone and each lane's latency is fixed), so a lane is drained by
// popping from the head while due — no sorting, no per-node allocation,
// no pointer chasing, unlike the std::deque chunks it replaces.
//
// ActiveSet tracks which ids (routers) currently have pending work.
// Membership is one bit per id; a sweep scans the words and visits set bits
// low-to-high, so ids always come out in ascending order — the same order
// the old full scans used, which is what keeps results bit-identical no
// matter in which order work was discovered. The bitmap replaces an earlier
// sorted-vector design whose per-sweep std::sort dominated sparse sweeps.
//
// TimingWheel is the due-cycle counterpart for work that is known to wait
// until a specific cycle (a link lane's next arrival, a serializer's next
// start): ids are filed under the cycle they become due, and a sweep visits
// only that cycle's ids — again low-to-high.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace flexnet {

template <typename T>
class EventLane {
  static_assert(std::is_trivially_copyable_v<T>,
                "lanes move events as raw bytes");

 public:
  /// Allocator-aware: a lane inside a pmr container draws its ring from
  /// the container's resource (the Network's arena); a standalone lane
  /// uses the default resource.
  using allocator_type = std::pmr::polymorphic_allocator<T>;

  EventLane() = default;
  explicit EventLane(const allocator_type& alloc) : alloc_(alloc) {}
  EventLane(EventLane&& o) noexcept
      : alloc_(o.alloc_),
        buf_(std::exchange(o.buf_, nullptr)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)),
        mask_(std::exchange(o.mask_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  EventLane(EventLane&& o, const allocator_type& alloc) : alloc_(alloc) {
    if (alloc_ == o.alloc_) {
      std::swap(buf_, o.buf_);
      std::swap(head_, o.head_);
      std::swap(size_, o.size_);
      std::swap(mask_, o.mask_);
      std::swap(cap_, o.cap_);
    } else {
      for (std::size_t i = 0; i < o.size(); ++i) push_back(o.at(i));
    }
  }
  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;
  EventLane& operator=(EventLane&&) = delete;
  ~EventLane() {
    if (buf_ != nullptr) alloc_.deallocate(buf_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const T& front() const {
    FLEXNET_DCHECK(size_ > 0);
    return buf_[head_];
  }

  /// Newest element (mutable: flit-level input queues grow the tail
  /// packet's phit count in place as its body flits arrive).
  T& back() {
    FLEXNET_DCHECK(size_ > 0);
    return buf_[(head_ + size_ - 1) & mask_];
  }

  /// i-th element from the head (diagnostics / tests only).
  const T& at(std::size_t i) const {
    FLEXNET_DCHECK(i < size_);
    return buf_[(head_ + static_cast<std::uint32_t>(i)) & mask_];
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & mask_] = v;
    ++size_;
  }

  void pop_front() {
    FLEXNET_DCHECK(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::uint32_t cap = cap_ == 0 ? 8 : cap_ * 2;
    T* next = alloc_.allocate(cap);
    for (std::uint32_t i = 0; i < size_; ++i)
      next[i] = buf_[(head_ + i) & mask_];
    if (buf_ != nullptr) alloc_.deallocate(buf_, cap_);
    buf_ = next;
    head_ = 0;
    mask_ = cap - 1;
    cap_ = cap;
  }

  allocator_type alloc_;
  T* buf_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t cap_ = 0;
};

class ActiveSet {
 public:
  explicit ActiveSet(
      std::pmr::memory_resource* mr = std::pmr::get_default_resource())
      : words_(mr) {}

  void resize(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  /// Marks `id` active; idempotent.
  void add(std::int32_t id) {
    std::uint64_t& w = words_[static_cast<std::size_t>(id) >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    size_ += static_cast<std::size_t>(!(w & bit));
    w |= bit;
  }

  /// Visits every active id in ascending order. `work(id)` returns true to
  /// keep the id active, false to retire it. `work` must not add ids to
  /// *this* set (sets feed each other, never themselves — an addition
  /// during its own sweep would be visited or missed depending on where the
  /// scan stands).
  template <typename WorkFn>
  void sweep(WorkFn&& work) {
    const std::size_t nw = words_.size();
    for (std::size_t wi = 0; wi < nw; ++wi) {
      std::uint64_t pend = words_[wi];
      while (pend != 0) {
        const int b = __builtin_ctzll(pend);
        pend &= pend - 1;
        const std::int32_t id = static_cast<std::int32_t>((wi << 6) + b);
        if (!work(id)) {
          words_[wi] &= ~(std::uint64_t{1} << b);
          --size_;
        }
      }
    }
  }

 private:
  std::pmr::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// A power-of-two ring of per-cycle bitmaps over ids [0, ids), in one flat
/// allocation (bucket b owns words [b * words_, (b + 1) * words_)). An id
/// due at cycle c sits in bucket c mod span(); sweep(now) drains bucket
/// now mod span() in ascending id order and files each visited id under
/// the next due cycle its visit returns.
///
/// Callers keep two rules, which together make a bucket hold exactly one
/// cycle's ids and never change under its own sweep:
///   * every id is filed in at most one bucket at a time;
///   * every due lies in [c, c + span()) where c is the next cycle to be
///     swept — and a visit's returned due lies strictly after the swept
///     cycle — so nothing lands in the bucket being drained.
class TimingWheel {
 public:
  /// Returned by a visit to leave the id unscheduled.
  static constexpr Cycle kIdle = -1;

  explicit TimingWheel(
      std::pmr::memory_resource* mr = std::pmr::get_default_resource())
      : bits_(mr) {}

  /// Sizes the wheel for ids [0, ids) due at most `horizon` cycles ahead;
  /// span() becomes the smallest power of two above `horizon`. Empties it.
  void resize(std::size_t ids, Cycle horizon) {
    span_ = 1;
    while (span_ <= horizon) span_ <<= 1;
    words_ = (ids + 63) / 64;
    bits_.assign(words_ * static_cast<std::size_t>(span_), 0);
    size_ = 0;
  }

  Cycle span() const { return span_; }

  /// Ids currently scheduled, over all buckets.
  std::size_t size() const { return size_; }

  /// Files `id` under cycle `due`; idempotent within one bucket.
  void add(std::int32_t id, Cycle due) {
    FLEXNET_DCHECK(due >= 0);
    std::uint64_t& w = row(due)[static_cast<std::size_t>(id) >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    size_ += static_cast<std::size_t>(!(w & bit));
    w |= bit;
  }

  /// Visits every id due at `now` in ascending order and empties its
  /// bucket. `visit(id)` returns the id's next due cycle — in
  /// (now, now + span()) — or kIdle.
  template <typename VisitFn>
  void sweep(Cycle now, VisitFn&& visit) {
    std::uint64_t* words = row(now);
    for (std::size_t wi = 0; wi < words_; ++wi) {
      std::uint64_t pend = words[wi];
      if (pend == 0) continue;
      words[wi] = 0;
      size_ -= static_cast<std::size_t>(__builtin_popcountll(pend));
      while (pend != 0) {
        const int b = __builtin_ctzll(pend);
        pend &= pend - 1;
        const Cycle next = visit(static_cast<std::int32_t>((wi << 6) + b));
        if (next == kIdle) continue;
        FLEXNET_DCHECK(next > now && next - now < span_);
        add(static_cast<std::int32_t>((wi << 6) + b), next);
      }
    }
  }

 private:
  std::uint64_t* row(Cycle c) {
    return bits_.data() +
           static_cast<std::size_t>(c & (span_ - 1)) * words_;
  }

  std::pmr::vector<std::uint64_t> bits_;
  std::size_t words_ = 0;
  Cycle span_ = 1;
  std::size_t size_ = 0;
};

}  // namespace flexnet
