// Property sweeps over the FlexVC candidate generator: for every VC
// arrangement x hop situation, the structural invariants of SIII must hold.
// Parameterized (TEST_P) across the arrangements the paper evaluates.
//
// The second half checks the compiled candidate table against the policy
// rule it caches: over a bounded context domain exhaustively, over every
// context the shipped suites reach, and across the table's growth.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/baseline_policy.hpp"
#include "core/flexvc_policy.hpp"
#include "scenario/registry.hpp"
#include "scenario/suite.hpp"
#include "sim/network.hpp"

namespace flexnet {
namespace {

constexpr LinkType kL = LinkType::kLocal;
constexpr LinkType kG = LinkType::kGlobal;

/// All hop situations enumerated by the sweep: every (floors, position)
/// state a packet can be in, against every remaining-path shape that occurs
/// in Dragonfly MIN/VAL/PAR routing.
struct Situation {
  HopContext ctx;
  std::string tag;
};

std::vector<Situation> situations(const VcTemplate& tmpl, MsgClass cls) {
  // Remaining (intended, escape) pairs after a prospective hop, drawn from
  // the canonical Dragonfly path structures.
  struct Shape {
    LinkType hop;
    HopSeq intended;
    HopSeq escape;
  };
  const std::vector<Shape> shapes = {
      {kL, {kG, kL}, {kG, kL}},                       // MIN first hop
      {kG, {kL}, {kL}},                               // MIN global hop
      {kL, {}, {}},                                   // final hop
      {kL, {kG, kL, kL, kG, kL}, {kG, kL}},           // VAL first hop
      {kG, {kL, kL, kG, kL}, {kL, kG, kL}},           // VAL 1st global
      {kL, {kL, kG, kL}, {kL, kG, kL}},               // entering VR group
      {kL, {kG, kL}, {kG, kL}},                       // VR -> exit router
      {kG, {kL}, {kL}},                               // VAL 2nd global
      {kL, {kL, kG, kL, kL, kG, kL}, {kG, kL}},       // PAR pre-misroute
  };
  std::vector<Situation> out;
  for (const Shape& shape : shapes) {
    // Position/floor states: injection, plus every buffer position with
    // floors consistent with having arrived there.
    for (int pos = -1; pos < tmpl.num_positions(); ++pos) {
      Situation s;
      s.ctx.cls = cls;
      s.ctx.hop_type = shape.hop;
      s.ctx.position = pos;
      s.ctx.floors = VcTemplate::no_floors();
      if (pos >= 0) {
        if (cls == MsgClass::kRequest &&
            tmpl.at(pos).cls == MsgClass::kReply)
          continue;  // a request never sits in a reply VC
        tmpl.floor_of(s.ctx.floors, tmpl.at(pos).type) = pos;
      }
      s.ctx.intended_after = shape.intended;
      s.ctx.escape_after = shape.escape;
      s.tag = "hop=" + std::string(to_string(shape.hop)) +
              " pos=" + std::to_string(pos) +
              " intended=" + shape.intended.to_string();
      out.push_back(s);
    }
  }
  return out;
}

class PolicyProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyProperties, CandidateInvariants) {
  const VcArrangement arr = VcArrangement::parse(GetParam());
  const FlexVcPolicy flex(arr);
  const BaselinePolicy base(arr);
  const VcTemplate& tmpl = flex.tmpl();

  for (int c = 0; c < (arr.has_reply() ? 2 : 1); ++c) {
    const auto cls = static_cast<MsgClass>(c);
    for (const Situation& s : situations(tmpl, cls)) {
      std::vector<VcCandidate> cands;
      flex.candidates(s.ctx, cands);

      const int type_floor = tmpl.floor_of(s.ctx.floors, s.ctx.hop_type);
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const VcCandidate& cand = cands[i];
        // (1) Ascending template positions, correct link type, class rule.
        if (i > 0) {
          EXPECT_LT(cands[i - 1].position, cand.position) << s.tag;
        }
        const VcRef& vc = tmpl.at(cand.position);
        EXPECT_EQ(vc.type, arr.typed ? s.ctx.hop_type : kL) << s.tag;
        if (cls == MsgClass::kRequest) {
          EXPECT_EQ(static_cast<int>(vc.cls),
                    static_cast<int>(MsgClass::kRequest))
              << s.tag;
        }
        // (2) Per-type floor respected.
        EXPECT_GE(cand.position, type_floor) << s.tag;
        // (3) Escape invariant: the minimal continuation embeds safely from
        // every candidate — the packet can never strand.
        VcTemplate::TypeFloors next = s.ctx.floors;
        tmpl.floor_of(next, s.ctx.hop_type) = cand.position;
        EXPECT_TRUE(
            tmpl.embed_path(s.ctx.escape_after, next, cand.position, cls))
            << s.tag;
        // (4) Safe candidates strictly climb the template and keep the
        // intended path viable within the own segment.
        if (cand.safe) {
          EXPECT_GT(cand.position, s.ctx.position) << s.tag;
          EXPECT_GT(cand.position, type_floor) << s.tag;
          EXPECT_TRUE(tmpl.embed_path(s.ctx.intended_after, next,
                                      cand.position, cls))
              << s.tag;
          EXPECT_EQ(static_cast<int>(tmpl.at(cand.position).cls),
                    static_cast<int>(cls))
              << s.tag;
        }
      }

      // (5) The baseline's choice, when it exists, is always among
      // FlexVC's candidates (FlexVC only relaxes, never forbids).
      std::vector<VcCandidate> base_cands;
      base.candidates(s.ctx, base_cands);
      if (!base_cands.empty()) {
        bool found = false;
        for (const auto& cand : cands)
          found |= cand.phys == base_cands[0].phys;
        EXPECT_TRUE(found) << s.tag << " arr=" << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arrangements, PolicyProperties,
                         ::testing::Values("2/1", "3/2", "4/2", "5/2", "8/4",
                                           "2/1+2/1", "3/2+2/1", "4/2+2/1",
                                           "4/2+4/2", "5/2+5/2"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (auto& ch : name) {
                             if (ch == '/') ch = '_';
                             if (ch == '+') ch = 'p';
                           }
                           return name;
                         });

class UntypedPolicyProperties : public ::testing::TestWithParam<const char*> {
};

TEST_P(UntypedPolicyProperties, DiameterTwoInvariants) {
  const VcArrangement arr = VcArrangement::parse(GetParam());
  const FlexVcPolicy flex(arr);
  const VcTemplate& tmpl = flex.tmpl();
  // Generic diameter-2 shapes: MIN (2 hops), VAL (4), PAR (5).
  const std::vector<std::pair<HopSeq, HopSeq>> shapes = {
      {{kL}, {kL}}, {{}, {}}, {{kL, kL, kL}, {kL, kL}}, {{kL, kL}, {kL, kL}}};
  for (int c = 0; c < (arr.has_reply() ? 2 : 1); ++c) {
    const auto cls = static_cast<MsgClass>(c);
    for (const auto& [intended, escape] : shapes) {
      for (int pos = -1; pos < tmpl.num_positions(); ++pos) {
        if (pos >= 0 && cls == MsgClass::kRequest &&
            tmpl.at(pos).cls == MsgClass::kReply)
          continue;
        HopContext ctx;
        ctx.cls = cls;
        ctx.hop_type = kL;
        ctx.position = pos;
        ctx.floors = VcTemplate::no_floors();
        if (pos >= 0) tmpl.floor_of(ctx.floors, kL) = pos;
        ctx.intended_after = intended;
        ctx.escape_after = escape;
        std::vector<VcCandidate> cands;
        flex.candidates(ctx, cands);
        for (const auto& cand : cands) {
          VcTemplate::TypeFloors next = ctx.floors;
          tmpl.floor_of(next, kL) = cand.position;
          EXPECT_TRUE(tmpl.embed_path(escape, next, cand.position, cls))
              << GetParam() << " pos=" << pos;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arrangements, UntypedPolicyProperties,
                         ::testing::Values("2", "3", "4", "5", "3+2", "4+4"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (auto& ch : name)
                             if (ch == '+') ch = 'p';
                           return "VCs_" + name;
                         });

// ---------------------------------------------------------------------------
// The compiled candidate table.

/// Exposes a policy's rule, the protected virtual the table caches, so a
/// test can ask it directly.
template <typename Policy>
struct Rule : Policy {
  using Policy::Policy;
  using Policy::compute_candidates;
  std::vector<VcCandidate> fresh(const HopContext& ctx) const {
    std::vector<VcCandidate> out;
    this->compute_candidates(ctx, out);
    return out;
  }
};

bool same_candidates(CandidateSpan table,
                     const std::vector<VcCandidate>& rule) {
  if (table.size() != rule.size()) return false;
  for (std::size_t i = 0; i < rule.size(); ++i) {
    if (table[i].phys != rule[i].phys ||
        table[i].position != rule[i].position ||
        table[i].safe != rule[i].safe)
      return false;
  }
  return true;
}

std::string describe(const HopContext& ctx) {
  return "cls=" + std::string(to_string(ctx.cls)) +
         " hop=" + to_string(ctx.hop_type) +
         " pos=" + std::to_string(ctx.position) +
         " floors=" + std::to_string(ctx.floors[0]) + "," +
         std::to_string(ctx.floors[1]) +
         " intended=" + ctx.intended_after.to_string() +
         " escape=" + ctx.escape_after.to_string();
}

bool same_context(const HopContext& a, const HopContext& b) {
  return a.cls == b.cls && a.hop_type == b.hop_type &&
         a.position == b.position && a.floors == b.floors &&
         a.intended_after == b.intended_after &&
         a.escape_after == b.escape_after;
}

/// Every sequence over {l, g} of length at most `max_len`, shortest first.
std::vector<HopSeq> all_sequences(int max_len) {
  std::vector<HopSeq> out{HopSeq{}};
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].size() == max_len) continue;
    for (const LinkType t : {kL, kG}) {
      HopSeq next = out[i];
      next.push_back(t);
      out.push_back(next);
    }
  }
  return out;
}

/// Looks up every context of the bounded domain — each class, hop type l or
/// g, position and both floors in [-1, P), intended sequences up to length
/// 6, escape sequences up to length 3 — and compares the table's answer,
/// first as a miss and then as a hit, with a fresh call of the rule. One
/// table per (class, hop type, position) keeps each table a few MB.
template <typename Policy>
void check_domain_exhaustively(const char* arrangement) {
  const VcArrangement arr = VcArrangement::parse(arrangement);
  const std::vector<HopSeq> intended = all_sequences(6);
  const std::vector<HopSeq> escape = all_sequences(3);
  std::int64_t checked = 0;
  std::int64_t mismatches = 0;
  std::string first;
  const auto check = [&](CandidateSpan table, const HopContext& ctx,
                         const std::vector<VcCandidate>& rule) {
    ++checked;
    if (same_candidates(table, rule)) return;
    if (mismatches++ == 0) first = describe(ctx);
  };
  for (int c = 0; c < (arr.has_reply() ? 2 : 1); ++c) {
    for (const LinkType hop : {kL, kG}) {
      const int positions = VcTemplate(arr).num_positions();
      for (int pos = -1; pos < positions; ++pos) {
        const Rule<Policy> policy(arr);
        std::vector<HopContext> slice;
        HopContext ctx;
        ctx.cls = static_cast<MsgClass>(c);
        ctx.hop_type = hop;
        ctx.position = pos;
        for (int f0 = -1; f0 < positions; ++f0) {
          for (int f1 = -1; f1 < positions; ++f1) {
            ctx.floors = {f0, f1};
            for (const HopSeq& in : intended) {
              ctx.intended_after = in;
              for (const HopSeq& esc : escape) {
                ctx.escape_after = esc;
                check(policy.candidates(ctx), ctx, policy.fresh(ctx));
                slice.push_back(ctx);
              }
            }
          }
        }
        // Every key is distinct, so the pass above filled one entry per
        // context; the pass below is all hits.
        ASSERT_EQ(policy.cached_contexts().size(), slice.size());
        for (const HopContext& again : slice)
          check(policy.candidates(again), again, policy.fresh(again));
        ASSERT_EQ(policy.cached_contexts().size(), slice.size());
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << arrangement << ": " << mismatches << " of "
                           << checked << " lookups differ from the rule, "
                           << "first at " << first;
  EXPECT_GT(checked, 0);
}

TEST(CandidateTable, MatchesTheRuleOverSmallArrangementsExhaustively) {
  for (const char* arr : {"2/1", "4/2", "2/1+2/1"}) {
    check_domain_exhaustively<FlexVcPolicy>(arr);
    check_domain_exhaustively<BaselinePolicy>(arr);
  }
}

TEST(CandidateTable, StartsEmptyAndGrowsKeepingEveryKey) {
  const Rule<FlexVcPolicy> policy(VcArrangement::parse("4/2"));
  EXPECT_EQ(policy.table_slots(), 0u) << "no lookup, no table";

  // Distinct contexts (one per intended sequence and hop type) in a fixed
  // order: enough to double the index twice.
  std::vector<HopContext> seen;
  const std::vector<HopSeq> seqs = all_sequences(5);
  std::size_t first_slots = 0;
  for (const HopSeq& in : seqs) {
    for (const LinkType hop : {kL, kG}) {
      HopContext ctx;
      ctx.hop_type = hop;
      ctx.intended_after = in;
      ctx.escape_after = in.size() > 2 ? in.tail() : in;
      ASSERT_TRUE(same_candidates(policy.candidates(ctx), policy.fresh(ctx)))
          << describe(ctx);
      seen.push_back(ctx);
      if (first_slots == 0) first_slots = policy.table_slots();
    }
  }
  ASSERT_GT(first_slots, 0u);
  ASSERT_GE(policy.table_slots(), 4 * first_slots)
      << "the test must push the table through at least two growths";

  // Every earlier key survives the rehashes: a hit, with the rule's answer.
  for (const HopContext& ctx : seen)
    EXPECT_TRUE(same_candidates(policy.candidates(ctx), policy.fresh(ctx)))
        << describe(ctx);
  const std::vector<HopContext> cached = policy.cached_contexts();
  ASSERT_EQ(cached.size(), seen.size()) << "a re-check was not a hit";
  for (const HopContext& ctx : seen)
    EXPECT_TRUE(std::any_of(cached.begin(), cached.end(),
                            [&](const HopContext& c) {
                              return same_context(c, ctx);
                            }))
        << "cached_contexts lost " << describe(ctx);
}

TEST(CandidateTable, MatchesTheRuleOnEveryContextTheShippedSuitesReach) {
  // Each distinct (policy, arrangement, routing, topology, traffic) of every
  // shipped suite, run at smoke scale at the suite's highest load. A fresh
  // policy instance answers every reached context as a miss, i.e. by a
  // fresh call of its rule.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLEXNET_SUITE_DIR))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  std::set<std::string> done;
  for (const auto& file : files) {
    const SuiteSpec spec = SuiteSpec::load(file.string());
    const double load = *std::max_element(spec.loads.begin(),
                                          spec.loads.end());
    for (const ExperimentSeries& series : spec.materialize(SimConfig{})) {
      SimConfig cfg = series.config;
      const std::string key = cfg.policy + "|" + cfg.vcs + "|" +
                              cfg.routing + "|" + cfg.topology + "|" +
                              cfg.traffic + "|" +
                              (cfg.reactive ? "reactive" : "oneway");
      if (!done.insert(key).second) continue;
      cfg.load = load;
      Network net(cfg);
      for (Cycle now = 0; now < 1500; ++now) net.step(now);
      const std::vector<HopContext> reached =
          net.policy().cached_contexts();
      const std::string where = file.filename().string() + " " + key;
      EXPECT_FALSE(reached.empty()) << where;

      const std::unique_ptr<VcPolicy> fresh =
          vc_policy_registry().at(cfg.policy).make(
              VcArrangement::parse(cfg.vcs));
      for (const HopContext& ctx : reached) {
        const CandidateSpan table = net.policy().candidates(ctx);
        std::vector<VcCandidate> rule;
        fresh->candidates(ctx, rule);
        EXPECT_TRUE(same_candidates(table, rule))
            << where << " " << describe(ctx);
      }
      EXPECT_EQ(fresh->cached_contexts().size(), reached.size())
          << where << ": every reached context must be a distinct key";
    }
  }
  EXPECT_GE(done.size(), 5u);
}
}  // namespace
}  // namespace flexnet
