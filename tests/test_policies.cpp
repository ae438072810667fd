// Unit and property tests for FlexVC and baseline candidate generation.
#include <gtest/gtest.h>

#include "core/baseline_policy.hpp"
#include "core/flexvc_policy.hpp"

namespace flexnet {
namespace {

constexpr LinkType kL = LinkType::kLocal;
constexpr LinkType kG = LinkType::kGlobal;

std::vector<VcCandidate> flex_candidates(const std::string& arrangement,
                                         const HopContext& ctx) {
  FlexVcPolicy policy{VcArrangement::parse(arrangement)};
  std::vector<VcCandidate> out;
  policy.candidates(ctx, out);
  return out;
}

std::vector<VcCandidate> base_candidates(const std::string& arrangement,
                                         const HopContext& ctx) {
  BaselinePolicy policy{VcArrangement::parse(arrangement)};
  std::vector<VcCandidate> out;
  policy.candidates(ctx, out);
  return out;
}

/// Whether the hop offers a waitable (safe) VC under `policy`.
bool has_safe_candidate(const VcPolicy& policy, const HopContext& ctx) {
  std::vector<VcCandidate> cands;
  policy.candidates(ctx, cands);
  for (const VcCandidate& c : cands)
    if (c.safe) return true;
  return false;
}

HopContext df_min_first_hop() {
  HopContext ctx;
  ctx.cls = MsgClass::kRequest;
  ctx.hop_type = kL;
  ctx.floors = VcTemplate::no_floors();
  ctx.intended_after = {kG, kL};
  ctx.escape_after = {kG, kL};
  return ctx;
}

void use_local(HopContext& ctx, int pos) {
  ctx.floors[0] = pos;
  ctx.position = pos;
}
void use_global(HopContext& ctx, int pos) {
  ctx.floors[1] = pos;
  ctx.position = pos;
}

// --- Baseline: exactly the distance-based VC.

TEST(BaselinePolicy, MinPathUsesReferencePrefix) {
  // 4/2 (reference l0 g0 l1 l2 g1 l3): a MIN path l-g-l uses the prefix
  // slots l0, g0, l1 — "such traffic only employs the first VC" (SIII-D),
  // leaving the later VCs unused (the inefficiency FlexVC removes).
  HopContext ctx = df_min_first_hop();
  auto c = base_candidates("4/2", ctx);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].phys, 0);  // l0

  ctx.hop_type = kG;
  use_local(ctx, c[0].position);
  ctx.intended_after = {kL};
  auto g = base_candidates("4/2", ctx);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].phys, 0);  // g0 — the VC that PB per-VC sensing monitors

  ctx.hop_type = kL;
  use_global(ctx, g[0].position);
  ctx.intended_after = {};
  auto l = base_candidates("4/2", ctx);
  ASSERT_EQ(l.size(), 1u);
  EXPECT_EQ(l[0].phys, 1);  // l1
}

TEST(BaselinePolicy, ValiantPathUsesFullReference) {
  // A full Valiant path l-g-l-l-g-l under 4/2 walks the entire reference
  // l0 g0 l1 l2 g1 l3 in order.
  const HopSeq val{kL, kG, kL, kL, kG, kL};
  HopContext ctx;
  int expected_phys[] = {0, 0, 1, 2, 1, 3};
  HopSeq remaining = val;
  for (int hop = 0; hop < val.size(); ++hop) {
    ctx.hop_type = val[hop];
    ctx.intended_after = remaining.tail();
    remaining = remaining.tail();
    auto c = base_candidates("4/2", ctx);
    ASSERT_EQ(c.size(), 1u) << "hop " << hop;
    EXPECT_EQ(c[0].phys, expected_phys[hop]) << "hop " << hop;
    if (val[hop] == kL)
      use_local(ctx, c[0].position);
    else
      use_global(ctx, c[0].position);
  }
}

TEST(BaselinePolicy, ValiantNeedsFourTwo) {
  HopContext ctx;
  ctx.hop_type = kL;
  ctx.intended_after = {kG, kL, kL, kG, kL};  // VAL after first hop
  ctx.escape_after = {kG, kL};
  EXPECT_TRUE(base_candidates("2/1", ctx).empty());
  EXPECT_TRUE(base_candidates("3/2", ctx).empty());
  EXPECT_EQ(base_candidates("4/2", ctx).size(), 1u);
}

TEST(BaselinePolicy, RepliesUseOwnSegment) {
  HopContext ctx = df_min_first_hop();
  ctx.cls = MsgClass::kReply;
  auto c = base_candidates("2/1+2/1", ctx);
  ASSERT_EQ(c.size(), 1u);
  // Physical index 2 = first reply local VC (after the 2 request VCs).
  EXPECT_EQ(c[0].phys, 2);
}

// --- FlexVC: every VC with a feasible escape.

TEST(FlexVcPolicy, MinFirstHopGetsMultipleVcs) {
  // 4/2 (l0 g0 l1 l2 g1 l3): a MIN first hop may use l0, l1 or l2 — the
  // escape g-l fits above each — but not l3 (no g above it).
  auto c = flex_candidates("4/2", df_min_first_hop());
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].phys, 0);
  EXPECT_EQ(c[1].phys, 1);
  EXPECT_EQ(c[2].phys, 2);
  for (const auto& cand : c) EXPECT_TRUE(cand.safe);
}

TEST(FlexVcPolicy, BaselineIsSubsetOfFlexVc) {
  // Property: for every hop the baseline VC is among FlexVC's candidates.
  for (const std::string arr : {"2/1", "3/2", "4/2", "5/2", "8/4"}) {
    HopContext ctx = df_min_first_hop();
    auto base = base_candidates(arr, ctx);
    auto flex = flex_candidates(arr, ctx);
    ASSERT_EQ(base.size(), 1u) << arr;
    bool found = false;
    for (const auto& cand : flex)
      if (cand.phys == base[0].phys) found = true;
    EXPECT_TRUE(found) << arr;
  }
}

TEST(FlexVcPolicy, CandidatesAscendByPosition) {
  auto c = flex_candidates("8/4", df_min_first_hop());
  for (std::size_t i = 1; i < c.size(); ++i)
    EXPECT_LT(c[i - 1].position, c[i].position);
}

TEST(FlexVcPolicy, TypeFloorRespected) {
  // A packet whose last local VC was l2 (position 3 of 4/2) may re-use l2
  // at the next router (opportunistic, Def. 2 equality) or climb to l3,
  // but never drop below its per-type floor.
  HopContext ctx;
  ctx.hop_type = kL;
  ctx.position = 3;
  ctx.floors = {3, VcTemplate::kNoFloor};
  ctx.intended_after = {};
  ctx.escape_after = {};
  auto c = flex_candidates("4/2", ctx);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].position, 3);
  EXPECT_FALSE(c[0].safe);  // equality: usable only with credits in hand
  EXPECT_EQ(c[1].position, 5);
  EXPECT_TRUE(c[1].safe);
}

TEST(FlexVcPolicy, FloorsArePerLinkType) {
  // A high *local* floor must not constrain the *global* VC choice: this
  // independence is what prevents overflow on one type from cascading into
  // the scarce high VCs of the other (FOGSim-lineage per-type indices).
  HopContext ctx;
  ctx.hop_type = kG;
  ctx.position = 3;  // sitting in l2
  ctx.floors = {3, VcTemplate::kNoFloor};
  ctx.intended_after = {kL};
  ctx.escape_after = {kL};
  auto c = flex_candidates("4/2", ctx);
  ASSERT_EQ(c.size(), 2u);  // g0 AND g1 — g0 is not blocked by the local floor
  EXPECT_EQ(c[0].position, 1);
  EXPECT_FALSE(c[0].safe);  // template descent: credits-in-hand only
  EXPECT_EQ(c[1].position, 4);
  EXPECT_TRUE(c[1].safe);
}

TEST(FlexVcPolicy, LastHopMayUseAnyVcAboveFloor) {
  // On the last hop (no escape needed), every local VC at or above the
  // floor is admissible — this is the HoLB-mitigation claim.
  HopContext ctx;
  ctx.hop_type = kL;
  ctx.intended_after = {};
  ctx.escape_after = {};
  EXPECT_EQ(flex_candidates("4/2", ctx).size(), 4u);
  EXPECT_EQ(flex_candidates("8/4", ctx).size(), 8u);
}

TEST(FlexVcPolicy, OpportunisticValiantWithThreeTwo) {
  // 3/2 (l0 g0 l1 g1 l2): first hop of a Valiant path. The intended
  // remainder g-l-l-g-l cannot embed (not safe), but the escape g-l can, so
  // the hop is admissible yet opportunistic.
  HopContext ctx;
  ctx.hop_type = kL;
  ctx.intended_after = {kG, kL, kL, kG, kL};
  ctx.escape_after = {kG, kL};
  auto c = flex_candidates("3/2", ctx);
  ASSERT_FALSE(c.empty());
  for (const auto& cand : c) EXPECT_FALSE(cand.safe);
}

TEST(FlexVcPolicy, InadmissibleWhenEscapeCannotFit) {
  // 2/1 (l0 g0 l1): a packet whose local floor is l1 (position 2) cannot
  // take a local hop needing escape g-l: no local slot remains for the
  // escape's final hop.
  HopContext ctx;
  ctx.hop_type = kL;
  ctx.position = 2;
  ctx.floors = {2, 1};
  ctx.intended_after = {kG, kL};
  ctx.escape_after = {kG, kL};
  EXPECT_TRUE(flex_candidates("2/1", ctx).empty());
}

// --- Request-reply segmentation (Theorem 2).

TEST(FlexVcPolicy, RequestsNeverGetReplyVcs) {
  HopContext ctx = df_min_first_hop();
  auto c = flex_candidates("2/1+2/1", ctx);
  VcTemplate tmpl(VcArrangement::parse("2/1+2/1"));
  for (const auto& cand : c) {
    EXPECT_LT(cand.position, tmpl.request_limit());
    EXPECT_LT(cand.phys, 2);  // physical request VCs on a local port
  }
}

TEST(FlexVcPolicy, RepliesPreferTheirOwnSegment) {
  // A minimal reply hop that fits in the reply segment stays there: request
  // VCs are reserved for hops the reply segment cannot accommodate (SIII-B
  // frames them as what "opportunistic reply hops following nonminimal
  // paths can leverage").
  HopContext ctx = df_min_first_hop();
  ctx.cls = MsgClass::kReply;
  auto c = flex_candidates("2/1+2/1", ctx);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].phys, 2);  // l0' — the first reply local VC
  EXPECT_TRUE(c[0].safe);
}

TEST(FlexVcPolicy, RepliesLeverageRequestVcsForNonminimalHops) {
  // A Valiant reply under 2/1+2/1 does not fit in the reply segment; the
  // unified sequence (Theorem 2) lets it run opportunistically through the
  // request VCs — the Table IV "X / opport." mechanism.
  HopContext ctx;
  ctx.cls = MsgClass::kReply;
  ctx.hop_type = kL;
  ctx.intended_after = {kG, kL, kL, kG, kL};
  ctx.escape_after = {kG, kL};
  auto c = flex_candidates("2/1+2/1", ctx);
  ASSERT_FALSE(c.empty());
  VcTemplate tmpl(VcArrangement::parse("2/1+2/1"));
  EXPECT_EQ(tmpl.at(c[0].position).cls, MsgClass::kRequest);
  for (const auto& cand : c) EXPECT_FALSE(cand.safe);
}

TEST(FlexVcPolicy, ReplyEscapeMayCrossSegments) {
  // A reply that used request VCs l1 and g0 still has a safe escape through
  // the reply segment; g0 itself remains opportunistically reusable.
  VcTemplate tmpl(VcArrangement::parse("2/1+2/1"));
  HopContext ctx;
  ctx.cls = MsgClass::kReply;
  ctx.hop_type = kG;
  ctx.position = 2;     // sitting in request l1
  ctx.floors = {2, 1};  // request l1 and g0 already used
  ctx.intended_after = {kL};
  ctx.escape_after = {kL};
  auto c = flex_candidates("2/1+2/1", ctx);
  // Own-segment preference: the reply commits to its own g0' (safe); the
  // request g0 would only reappear if the reply segment could not hold the
  // remaining path.
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(tmpl.at(c[0].position).cls, MsgClass::kReply);  // g0'
  EXPECT_TRUE(c[0].safe);
}

// --- Untyped networks.

TEST(FlexVcPolicy, UntypedDiameterTwo) {
  // 3 VCs, first hop of a 2-hop minimal path: candidates l0, l1 (escape is
  // one hop; l2 leaves no room).
  HopContext ctx;
  ctx.hop_type = kL;
  ctx.intended_after = {kL};
  ctx.escape_after = {kL};
  auto c = flex_candidates("3", ctx);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_TRUE(c[0].safe);
}

TEST(PolicyInterface, HasSafeCandidateMatchesClassification) {
  FlexVcPolicy policy{VcArrangement::parse("3/2")};
  HopContext val = df_min_first_hop();
  val.intended_after = {kG, kL, kL, kG, kL};
  EXPECT_FALSE(has_safe_candidate(policy, val));
  HopContext min = df_min_first_hop();
  EXPECT_TRUE(has_safe_candidate(policy, min));
}

}  // namespace
}  // namespace flexnet
