#include "core/vc_policy.hpp"

#include <utility>

#include "common/check.hpp"

namespace flexnet {

VcPolicy::VcPolicy(const VcArrangement& arrangement) : tmpl_(arrangement) {
  // Positions and floors pack as position + 1 in kPositionBits each.
  FLEXNET_CHECK_MSG(tmpl_.num_positions() < (1 << kPositionBits) - 1,
                    "VC arrangement has too many template positions");
}

CandidateSpan VcPolicy::insert(const HopContext& ctx, std::uint64_t key) const {
  // The key must name exactly one context: every packed field in range.
  const auto packable = [&](int p) {
    return p >= -1 && p < tmpl_.num_positions();
  };
  FLEXNET_CHECK(ctx.hop_type == LinkType::kLocal ||
                ctx.hop_type == LinkType::kGlobal);
  FLEXNET_CHECK(packable(ctx.position) && packable(ctx.floors[0]) &&
                packable(ctx.floors[1]));

  const auto place = [](std::vector<IndexSlot>& index, const IndexSlot& s) {
    const std::size_t mask = index.size() - 1;
    std::size_t i = slot_of(s.key, mask);
    while (index[i].key != kEmptyKey) i = (i + 1) & mask;
    index[i] = s;
  };
  if (2 * (entries_ + 1) > index_.size()) {
    // Grow (or create) the index, rehashing every stored key.
    std::vector<IndexSlot> grown(
        index_.empty() ? kFirstSlots : 2 * index_.size());
    for (const IndexSlot& s : index_)
      if (s.key != kEmptyKey) place(grown, s);
    index_ = std::move(grown);
  }

  IndexSlot slot;
  slot.key = key;
  slot.first = static_cast<std::uint32_t>(cands_.size());
  compute_candidates(ctx, cands_);
  slot.count = static_cast<std::uint32_t>(cands_.size() - slot.first);
  place(index_, slot);
  ++entries_;
  return {cands_.data() + slot.first, slot.count};
}

HopContext VcPolicy::context_of(std::uint64_t key) {
  constexpr int kSeq = HopSeq::kCodeBits;
  const auto seq = [](std::uint64_t code) {
    HopSeq out;
    const auto len = static_cast<int>(
        code & ((std::uint64_t{1} << HopSeq::kCodeLengthBits) - 1));
    for (int i = 0; i < len; ++i)
      out.push_back((code >> (HopSeq::kCodeLengthBits + i) & 1) != 0
                        ? LinkType::kGlobal
                        : LinkType::kLocal);
    return out;
  };
  const auto pos = [&](int shift) {
    return static_cast<int>(key >> shift &
                            ((std::uint64_t{1} << kPositionBits) - 1)) -
           1;
  };
  const std::uint64_t seq_mask = (std::uint64_t{1} << kSeq) - 1;
  HopContext ctx;
  ctx.intended_after = seq(key & seq_mask);
  ctx.escape_after = seq(key >> kSeq & seq_mask);
  ctx.cls = static_cast<MsgClass>(key >> (2 * kSeq) & 1);
  ctx.hop_type = static_cast<LinkType>(key >> (2 * kSeq + 1) & 1);
  ctx.position = pos(2 * kSeq + 2);
  ctx.floors = {pos(2 * kSeq + 2 + kPositionBits),
                pos(2 * kSeq + 2 + 2 * kPositionBits)};
  return ctx;
}

std::vector<HopContext> VcPolicy::cached_contexts() const {
  std::vector<HopContext> out;
  out.reserve(entries_);
  for (const IndexSlot& s : index_)
    if (s.key != kEmptyKey) out.push_back(context_of(s.key));
  return out;
}

}  // namespace flexnet
