#include "topology/slimfly.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace flexnet {

bool is_prime(int q) {
  if (q < 2) return false;
  for (int d = 2; d * d <= q; ++d)
    if (q % d == 0) return false;
  return true;
}

SlimFly::SlimFly(const SlimFlyParams& params)
    : Topology(params.p, kShape), params_(params) {
  FLEXNET_CHECK_MSG(is_prime(params_.q) && params_.q % 4 == 1,
                    "SlimFly MMS construction here requires prime q = 1 mod 4");
  FLEXNET_CHECK_MSG(params_.q <= 37, "routing tables sized for q <= 37");
  const int q = params_.q;
  // Quadratic residues mod q. With q = 1 mod 4, -1 is a residue, so both
  // sets are symmetric (s in set => -s in set) and define undirected Cayley
  // graphs.
  std::vector<bool> residue(static_cast<std::size_t>(q), false);
  for (int v = 1; v < q; ++v) residue[static_cast<std::size_t>(v * v % q)] = true;
  for (int v = 1; v < q; ++v) {
    (residue[static_cast<std::size_t>(v)] ? residues_ : non_residues_).push_back(v);
  }
  FLEXNET_CHECK(static_cast<int>(residues_.size()) == (q - 1) / 2);
  build_wiring();
  validate_wiring();
  build_routing_tables();
}

void SlimFly::build_wiring() {
  const int q = params_.q;
  const int intra = (q - 1) / 2;
  resize_routers(params_.num_routers(), params_.network_degree());

  // Port index of the intra-block edge with offset `delta` in `set`.
  const auto intra_port = [](const std::vector<int>& set, int delta) {
    const auto it = std::find(set.begin(), set.end(), delta);
    return static_cast<PortIndex>(it - set.begin());
  };

  for (int s = 0; s < 2; ++s) {
    const auto& set = (s == 0) ? residues_ : non_residues_;
    for (int b = 0; b < q; ++b) {
      for (int e = 0; e < q; ++e) {
        const RouterId r = router_id(s, b, e);
        // Intra-block Cayley edges: e -> e + delta.
        for (int i = 0; i < intra; ++i) {
          const int e2 = (e + set[static_cast<std::size_t>(i)]) % q;
          const int back = (q - set[static_cast<std::size_t>(i)]) % q;
          set_port(r, i,
                   PortDesc{LinkType::kLocal, router_id(s, b, e2),
                            intra_port(set, back)});
        }
        // Cross edges. Subgraph 0 router (0, x, y): for every slope m the
        // unique line through it has intercept c = y - m*x; the port index
        // on the (1, m, c) side is x.
        if (s == 0) {
          const int x = b;
          const int y = e;
          for (int m = 0; m < q; ++m) {
            const int c = ((y - m * x) % q + q) % q;
            set_port(r, intra + m,
                     PortDesc{LinkType::kLocal, router_id(1, m, c),
                              static_cast<PortIndex>(intra + x)});
          }
        } else {
          const int m = b;
          const int c = e;
          for (int x = 0; x < q; ++x) {
            const int y = (m * x + c) % q;
            set_port(r, intra + x,
                     PortDesc{LinkType::kLocal, router_id(0, x, y),
                              static_cast<PortIndex>(intra + m)});
          }
        }
      }
    }
  }
}

void SlimFly::build_routing_tables() {
  const int n = num_routers();
  dist_.assign(static_cast<std::size_t>(n),
               std::vector<std::uint8_t>(static_cast<std::size_t>(n), 3));
  next_.assign(static_cast<std::size_t>(n),
               std::vector<std::vector<PortIndex>>(static_cast<std::size_t>(n)));
  for (RouterId from = 0; from < n; ++from) {
    auto& drow = dist_[static_cast<std::size_t>(from)];
    auto& nrow = next_[static_cast<std::size_t>(from)];
    drow[static_cast<std::size_t>(from)] = 0;
    // Direct neighbors.
    for (PortIndex p = 0; p < num_network_ports(from); ++p) {
      const RouterId nb = port(from, p).neighbor;
      drow[static_cast<std::size_t>(nb)] = 1;
      nrow[static_cast<std::size_t>(nb)].push_back(p);
    }
    // Two-hop reachability: first mark distances, then collect every
    // first-hop port that starts a minimal (2-hop) route, so distance-2
    // pairs keep their full path diversity.
    for (PortIndex p = 0; p < num_network_ports(from); ++p) {
      const RouterId nb = port(from, p).neighbor;
      for (PortIndex p2 = 0; p2 < num_network_ports(nb); ++p2) {
        auto& d = drow[static_cast<std::size_t>(port(nb, p2).neighbor)];
        if (d > 2) d = 2;
      }
    }
    for (PortIndex p = 0; p < num_network_ports(from); ++p) {
      const RouterId nb = port(from, p).neighbor;
      for (PortIndex p2 = 0; p2 < num_network_ports(nb); ++p2) {
        const RouterId two = port(nb, p2).neighbor;
        if (drow[static_cast<std::size_t>(two)] != 2) continue;
        auto& options = nrow[static_cast<std::size_t>(two)];
        if (options.empty() || options.back() != p) options.push_back(p);
      }
    }
    for (RouterId to = 0; to < n; ++to) {
      FLEXNET_CHECK_MSG(drow[static_cast<std::size_t>(to)] <= 2,
                        "MMS graph is not diameter 2 — construction bug");
    }
  }
}

std::string SlimFly::name() const {
  return "slimfly(p=" + std::to_string(params_.p) +
         ",q=" + std::to_string(params_.q) + ")";
}

PortIndex SlimFly::min_next_port(RouterId from, RouterId to, Rng* rng) const {
  FLEXNET_DCHECK(from != to);
  const auto& options = next_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  FLEXNET_DCHECK(!options.empty());
  if (options.size() == 1 || rng == nullptr) return options.front();
  return options[rng->next_below(options.size())];
}

HopSeq SlimFly::min_hop_types(RouterId from, RouterId to) const {
  HopSeq seq;
  const int d = dist_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  for (int i = 0; i < d; ++i) seq.push_back(LinkType::kLocal);
  return seq;
}

}  // namespace flexnet
