// Structural invariants of the two topologies, checked against BFS.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "topology/dragonfly.hpp"
#include "topology/slimfly.hpp"

namespace flexnet {
namespace {

// --- Dragonfly.

TEST(Dragonfly, SizesMatchFormulae) {
  const Dragonfly topo({2, 4, 2});
  EXPECT_EQ(topo.num_groups(), 9);
  EXPECT_EQ(topo.num_routers(), 36);
  EXPECT_EQ(topo.num_nodes(), 72);
  EXPECT_EQ(topo.num_network_ports(0), 3 + 2);  // a-1 local + h global
  EXPECT_TRUE(topo.typed());
  EXPECT_EQ(topo.diameter(), 3);
}

TEST(Dragonfly, PaperScaleSizes) {
  // Table V: 31-port routers (15 local + 8 global + 8 injection handled by
  // the node layer), 129 groups, 2064 routers, 16512 nodes.
  const DragonflyParams params = DragonflyParams::paper_scale();
  EXPECT_EQ(params.num_groups(), 129);
  EXPECT_EQ(params.num_routers(), 2064);
  EXPECT_EQ(params.num_nodes(), 16512);
  EXPECT_EQ(params.a - 1 + params.h, 23);  // network ports per router
}

TEST(Dragonfly, EveryGroupPairHasExactlyOneGlobalLink) {
  const Dragonfly topo({2, 4, 2});
  const int groups = topo.num_groups();
  std::vector<std::vector<int>> links(
      static_cast<std::size_t>(groups),
      std::vector<int>(static_cast<std::size_t>(groups), 0));
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    for (PortIndex p = 0; p < topo.num_network_ports(r); ++p) {
      const PortDesc& desc = topo.port(r, p);
      if (desc.type != LinkType::kGlobal) continue;
      ++links[static_cast<std::size_t>(topo.group_of(r))]
             [static_cast<std::size_t>(topo.group_of(desc.neighbor))];
    }
  }
  for (int g1 = 0; g1 < groups; ++g1)
    for (int g2 = 0; g2 < groups; ++g2)
      EXPECT_EQ(links[static_cast<std::size_t>(g1)][static_cast<std::size_t>(g2)],
                g1 == g2 ? 0 : 1)
          << g1 << "->" << g2;
}

TEST(Dragonfly, LocalLinksFormCompleteGroupGraphs) {
  const Dragonfly topo({2, 4, 2});
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    int local = 0;
    for (PortIndex p = 0; p < topo.num_network_ports(r); ++p) {
      const PortDesc& desc = topo.port(r, p);
      if (desc.type == LinkType::kLocal) {
        ++local;
        EXPECT_EQ(topo.group_of(desc.neighbor), topo.group_of(r));
        EXPECT_NE(desc.neighbor, r);
      }
    }
    EXPECT_EQ(local, topo.params().a - 1);
  }
}

TEST(Dragonfly, MinRoutesReachDestinationWithinDiameter) {
  const Dragonfly topo({2, 4, 2});
  for (RouterId from = 0; from < topo.num_routers(); from += 5) {
    for (RouterId to = 0; to < topo.num_routers(); to += 3) {
      if (from == to) continue;
      RouterId cur = from;
      int hops = 0;
      HopSeq expected = topo.min_hop_types(from, to);
      while (cur != to) {
        ASSERT_LE(hops, topo.diameter());
        const PortIndex p = topo.min_next_port(cur, to);
        EXPECT_EQ(topo.port(cur, p).type, expected[hops]);
        cur = topo.port(cur, p).neighbor;
        ++hops;
      }
      EXPECT_EQ(hops, expected.size());
    }
  }
}

TEST(Dragonfly, MinDistanceBoundsBfs) {
  // Canonical Dragonfly minimal routing is l-g-l; BFS may find shorter
  // paths chaining two global links, so the l-g-l distance upper-bounds the
  // BFS distance and never exceeds the diameter. Within a group (and for
  // direct-global pairs) the two coincide.
  const Dragonfly topo({2, 4, 2});
  for (RouterId from = 0; from < topo.num_routers(); from += 7) {
    const auto dist = bfs_distances(topo, from);
    for (RouterId to = 0; to < topo.num_routers(); ++to) {
      const int lgl = topo.min_distance(from, to);
      EXPECT_GE(lgl, dist[static_cast<std::size_t>(to)]) << from << "->" << to;
      EXPECT_LE(lgl, topo.diameter());
      if (topo.group_of(from) == topo.group_of(to)) {
        EXPECT_EQ(lgl, dist[static_cast<std::size_t>(to)]);
      }
    }
  }
}

TEST(Dragonfly, MinHopTypesFollowLglOrder) {
  const Dragonfly topo({2, 4, 2});
  for (RouterId from = 0; from < topo.num_routers(); ++from) {
    for (RouterId to = 0; to < topo.num_routers(); ++to) {
      const HopSeq seq = topo.min_hop_types(from, to);
      EXPECT_LE(seq.count(LinkType::kGlobal), 1);
      // No local hop may follow a global and precede another global; with
      // one global the pattern is l? g l?.
      bool seen_global = false;
      int locals_after_global = 0;
      for (LinkType t : seq) {
        if (t == LinkType::kGlobal) {
          EXPECT_FALSE(seen_global);
          seen_global = true;
        } else if (seen_global) {
          ++locals_after_global;
        }
      }
      EXPECT_LE(locals_after_global, 1);
    }
  }
}

/// Link types of the route built hop by hop from min_next_port and the
/// port table — the reference min_hop_types computes arithmetically.
HopSeq walked_min_hop_types(const Topology& topo, RouterId from,
                            RouterId to) {
  HopSeq seq;
  for (RouterId at = from; at != to;) {
    const PortDesc& hop = topo.port(at, topo.min_next_port(at, to));
    seq.push_back(hop.type);
    at = hop.neighbor;
  }
  return seq;
}

TEST(Dragonfly, MinHopTypesMatchTheWalkedRoute) {
  for (const DragonflyParams params :
       {DragonflyParams{2, 4, 2}, DragonflyParams{4, 8, 4}}) {
    const Dragonfly topo(params);
    for (RouterId from = 0; from < topo.num_routers(); ++from)
      for (RouterId to = 0; to < topo.num_routers(); ++to)
        ASSERT_EQ(topo.min_hop_types(from, to),
                  walked_min_hop_types(topo, from, to))
            << topo.name() << " " << from << "->" << to;
  }
  const Dragonfly paper(DragonflyParams::paper_scale());
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const RouterId from = paper.random_router(rng);
    const RouterId to = paper.random_router(rng);
    ASSERT_EQ(paper.min_hop_types(from, to),
              walked_min_hop_types(paper, from, to))
        << from << "->" << to;
  }
}

TEST(Dragonfly, FlatPortTableMatchesTheWiringAtEveryScale) {
  // Every port, recomputed from the construction rules: a complete local
  // graph per group (the port toward router j skips the self slot) and
  // the palmtree global arrangement (channel k of group g reaches group
  // g + k + 1 and lands on its channel a*h - 1 - k).
  for (const DragonflyParams params :
       {DragonflyParams{2, 4, 2}, DragonflyParams{4, 8, 4},
        DragonflyParams::paper_scale()}) {
    const Dragonfly topo(params);
    const int a = params.a;
    const int h = params.h;
    const int groups = params.num_groups();
    for (RouterId r = 0; r < topo.num_routers(); ++r) {
      ASSERT_EQ(topo.num_network_ports(r), a - 1 + h);
      const GroupId g = r / a;
      const int i = r % a;
      for (PortIndex p = 0; p < a - 1; ++p) {
        const int j = p < i ? p : p + 1;
        const PortDesc& desc = topo.port(r, p);
        ASSERT_EQ(desc.type, LinkType::kLocal) << topo.name() << " " << r;
        ASSERT_EQ(desc.neighbor, g * a + j) << topo.name() << " " << r;
        ASSERT_EQ(desc.neighbor_port, i < j ? i : i - 1);
      }
      for (int c = 0; c < h; ++c) {
        const int k = i * h + c;
        const GroupId peer = (g + k + 1) % groups;
        const int peer_channel = a * h - 1 - k;
        const PortDesc& desc = topo.port(r, a - 1 + c);
        ASSERT_EQ(desc.type, LinkType::kGlobal) << topo.name() << " " << r;
        ASSERT_EQ(desc.neighbor, peer * a + peer_channel / h)
            << topo.name() << " " << r;
        ASSERT_EQ(desc.neighbor_port, a - 1 + peer_channel % h);
      }
    }
  }
}

TEST(Dragonfly, GlobalLinkOwnerOwnsTheLink) {
  const Dragonfly topo({2, 4, 2});
  for (RouterId from = 0; from < topo.num_routers(); from += 3) {
    for (GroupId g = 0; g < topo.num_groups(); ++g) {
      if (g == topo.group_of(from)) continue;
      PortIndex port = kInvalidPort;
      const RouterId owner = topo.global_link_owner(from, g, port);
      EXPECT_EQ(topo.group_of(owner), topo.group_of(from));
      const PortDesc& desc = topo.port(owner, port);
      EXPECT_EQ(desc.type, LinkType::kGlobal);
      EXPECT_EQ(topo.group_of(desc.neighbor), g);
    }
  }
}

// --- Slim Fly.

TEST(SlimFly, SizesAndDegree) {
  const SlimFly topo({2, 5});
  EXPECT_EQ(topo.num_routers(), 50);
  EXPECT_EQ(topo.num_network_ports(0), 7);  // (3q-1)/2
  EXPECT_FALSE(topo.typed());
}

TEST(SlimFly, DiameterTwoByBfs) {
  const SlimFly topo({2, 5});
  for (RouterId from = 0; from < topo.num_routers(); ++from) {
    const auto dist = bfs_distances(topo, from);
    for (RouterId to = 0; to < topo.num_routers(); ++to) {
      EXPECT_LE(dist[static_cast<std::size_t>(to)], 2);
      EXPECT_EQ(topo.min_distance(from, to), dist[static_cast<std::size_t>(to)]);
    }
  }
}

TEST(SlimFly, DiameterTwoForQ13) {
  const SlimFly topo({1, 13});
  EXPECT_EQ(topo.num_routers(), 338);
  EXPECT_EQ(topo.num_network_ports(0), 19);
  const auto dist = bfs_distances(topo, 0);
  for (int d : dist) EXPECT_LE(d, 2);
}

TEST(SlimFly, MinRoutesReachDestination) {
  const SlimFly topo({2, 5});
  Rng rng(3);
  for (RouterId from = 0; from < topo.num_routers(); from += 3) {
    for (RouterId to = 0; to < topo.num_routers(); ++to) {
      if (from == to) continue;
      RouterId cur = from;
      int hops = 0;
      while (cur != to) {
        ASSERT_LE(++hops, 2);
        cur = topo.port(cur, topo.min_next_port(cur, to, &rng)).neighbor;
      }
    }
  }
}

// The only test of min_next_port's RNG tie-break on non-unique minimal
// paths: every minimal next hop of a pair with several must be drawn.
// MMS(5) has a unique minimal first hop for every pair; MMS(13) does not.
TEST(SlimFly, TieBreakReachesEveryMinimalNextHop) {
  for (const int q : {5, 13}) {
    const SlimFly topo({1, q});
    for (RouterId from = 0; from < topo.num_routers(); ++from) {
      const std::vector<int> dist_from = bfs_distances(topo, from);
      for (RouterId to = 0; to < topo.num_routers(); ++to) {
        if (to == from) continue;
        const std::vector<int> dist_to = bfs_distances(topo, to);
        std::set<PortIndex> minimal;
        for (PortIndex p = 0; p < topo.num_network_ports(from); ++p) {
          const RouterId nb = topo.port(from, p).neighbor;
          if (dist_to[static_cast<std::size_t>(nb)] + 1 ==
              dist_from[static_cast<std::size_t>(to)])
            minimal.insert(p);
        }
        if (minimal.size() < 2) continue;
        Rng rng(11);
        std::set<PortIndex> drawn;
        for (int i = 0; i < 64 * static_cast<int>(minimal.size()); ++i)
          drawn.insert(topo.min_next_port(from, to, &rng));
        EXPECT_EQ(drawn, minimal) << "q=" << q << " " << from << "->" << to;
        return;
      }
    }
  }
  FAIL() << "no router pair with two minimal next hops at q = 5 or 13";
}

TEST(SlimFly, RejectsNonPrimeOrWrongResidueClass) {
  EXPECT_DEATH(SlimFly({1, 4}), "prime");
  EXPECT_DEATH(SlimFly({1, 7}), "prime");  // 7 % 4 == 3: unsupported here
}

TEST(SlimFly, GroupsPartitionRouters) {
  const SlimFly topo({2, 5});
  EXPECT_EQ(topo.num_groups(), 10);
  std::vector<int> sizes(static_cast<std::size_t>(topo.num_groups()), 0);
  for (RouterId r = 0; r < topo.num_routers(); ++r)
    ++sizes[static_cast<std::size_t>(topo.group_of(r))];
  for (int s : sizes) EXPECT_EQ(s, 5);
}

}  // namespace
}  // namespace flexnet
