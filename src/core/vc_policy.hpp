// Buffer-management policy interface: which VCs may a packet use for its
// next hop?
//
// The router's routing unit builds a HopContext per candidate output port
// (intended hop and, for FlexVC non-minimal routings, the minimal escape
// hop) and asks the policy for the admissible VCs on the downstream input
// port. The baseline policy returns the single distance-based VC; FlexVC
// returns every VC that keeps a safe escape path available (paper SIII-A).
//
// The answer depends on nothing but the HopContext, and a run reaches only
// a few hundred distinct contexts, so each policy compiles its rule into a
// table as it goes: the first lookup of a context runs the policy's rule
// (the protected virtual compute_candidates, the only definition of
// admissibility) and stores the result; every later lookup of that context
// is a hash probe returning a view of the stored candidates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/hop_seq.hpp"
#include "core/vc_template.hpp"

namespace flexnet {

/// Everything the policy needs to know about one prospective hop.
struct HopContext {
  MsgClass cls = MsgClass::kRequest;
  /// Link type of the hop under consideration.
  LinkType hop_type = LinkType::kLocal;
  /// Template position of the buffer currently holding the packet
  /// (kInjectionPosition in an injection queue). Safe (waitable) candidates
  /// must sit strictly above it — waiting chains follow the template order
  /// and stay acyclic.
  int position = -1;
  /// Per-link-type floors: template positions of the last local/global VC
  /// the packet has occupied (VcTemplate::kNoFloor when none). VC indices
  /// increase per type along a path; opportunistic hops may descend in
  /// template order (credits in hand, Definition 2) but never per type.
  VcTemplate::TypeFloors floors = VcTemplate::no_floors();
  /// Type sequence of the packet's intended route AFTER this hop.
  HopSeq intended_after;
  /// Type sequence of the minimal path from the router reached by this hop
  /// to the destination — the escape path of Definition 2.
  HopSeq escape_after;
};

inline constexpr int kInjectionPosition = -1;

/// One admissible VC on the downstream input port.
struct VcCandidate {
  VcIndex phys = kInvalidVc;  ///< physical buffer index on that port
  int position = -1;          ///< template position
  bool safe = false;          ///< intended route embeds above this VC too
};

/// Read-only view of contiguous candidates (a std::span stand-in: the
/// sources build as C++17).
class CandidateSpan {
 public:
  CandidateSpan() = default;
  CandidateSpan(const VcCandidate* data, std::size_t size)
      : data_(data), size_(size) {}
  /// Implicit, like std::span's: a vector of candidates is a view of them.
  CandidateSpan(const std::vector<VcCandidate>& v)
      : data_(v.data()), size_(v.size()) {}

  const VcCandidate* begin() const { return data_; }
  const VcCandidate* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const VcCandidate& operator[](std::size_t i) const { return data_[i]; }
  const VcCandidate& front() const { return data_[0]; }

 private:
  const VcCandidate* data_ = nullptr;
  std::size_t size_ = 0;
};

class VcPolicy {
 public:
  explicit VcPolicy(const VcArrangement& arrangement);
  virtual ~VcPolicy() = default;

  /// The admissible VCs for the hop, in ascending template position order.
  /// An empty result means the hop itself is inadmissible (the routing
  /// layer must fall back to the escape route). The view points into the
  /// policy's table and stays valid until the next lookup on this policy
  /// (a lookup of a new context may grow the table). Not thread-safe: a
  /// policy belongs to one Network, which runs on one thread.
  CandidateSpan candidates(const HopContext& ctx) const {
    const std::uint64_t key = table_key(ctx);
    if (!index_.empty()) {
      const std::size_t mask = index_.size() - 1;
      for (std::size_t i = slot_of(key, mask);; i = (i + 1) & mask) {
        const IndexSlot& s = index_[i];
        if (s.key == key) return {cands_.data() + s.first, s.count};
        if (s.key == kEmptyKey) break;
      }
    }
    return insert(ctx, key);
  }

  /// Appends candidates(ctx) to `out`.
  void candidates(const HopContext& ctx, std::vector<VcCandidate>& out) const {
    const CandidateSpan span = candidates(ctx);
    out.insert(out.end(), span.begin(), span.end());
  }

  /// Every context the table holds, in no particular order (tests and
  /// diagnostics: what a run reached).
  std::vector<HopContext> cached_contexts() const;
  /// Slots of the table's index (0 until the first lookup).
  std::size_t table_slots() const { return index_.size(); }

  const VcTemplate& tmpl() const { return tmpl_; }

 protected:
  /// The policy's rule: appends the admissible VCs for the hop to `out` in
  /// ascending template position order. Runs once per distinct context.
  virtual void compute_candidates(const HopContext& ctx,
                                  std::vector<VcCandidate>& out) const = 0;

  VcTemplate tmpl_;

 private:
  /// One index entry: a packed context and its candidates' range in
  /// cands_. The index is open-addressed (linear probing) over a power-of-
  /// two array kept at most half full.
  struct IndexSlot {
    std::uint64_t key = kEmptyKey;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  /// Packed keys use the low 62 bits, so all-ones never names a context.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kFirstSlots = 64;
  /// Bits per packed position or floor (stored + 1, so -1 packs as 0).
  static constexpr int kPositionBits = 6;

  /// Packs every HopContext field compute_candidates may read: the two
  /// HopSeq codes, class, hop type, position and both floors.
  static std::uint64_t table_key(const HopContext& ctx) {
    constexpr int kSeq = HopSeq::kCodeBits;
    const auto pos = [](int p) { return static_cast<std::uint64_t>(p + 1); };
    return std::uint64_t{ctx.intended_after.code()} |
           std::uint64_t{ctx.escape_after.code()} << kSeq |
           static_cast<std::uint64_t>(ctx.cls) << (2 * kSeq) |
           static_cast<std::uint64_t>(ctx.hop_type) << (2 * kSeq + 1) |
           pos(ctx.position) << (2 * kSeq + 2) |
           pos(ctx.floors[0]) << (2 * kSeq + 2 + kPositionBits) |
           pos(ctx.floors[1]) << (2 * kSeq + 2 + 2 * kPositionBits);
  }
  static HopContext context_of(std::uint64_t key);
  static std::size_t slot_of(std::uint64_t key, std::size_t mask) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           mask;
  }

  /// Miss path: runs compute_candidates, stores its result under `key`.
  CandidateSpan insert(const HopContext& ctx, std::uint64_t key) const;

  mutable std::vector<IndexSlot> index_;
  mutable std::vector<VcCandidate> cands_;
  mutable std::size_t entries_ = 0;
};

}  // namespace flexnet
