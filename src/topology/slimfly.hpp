// Slim Fly MMS topology (Besta & Hoefler, SC 2014) — the diameter-2
// network the paper names as the prime FlexVC target without link-type
// restrictions (SII, SVI-E).
//
// This implementation supports the McKay-Miller-Siran construction over a
// prime field F_q with q ≡ 1 (mod 4) (q = 5, 13, 17, 29, ...):
//   * routers (0, x, y) and (1, m, c) with x, y, m, c in F_q;
//   * (0,x,y)  ~ (0,x,y')  iff y - y'  is a nonzero quadratic residue;
//   * (1,m,c)  ~ (1,m,c')  iff c - c'  is a quadratic non-residue;
//   * (0,x,y)  ~ (1,m,c)   iff y = m*x + c.
// Network degree (3q-1)/2, 2q^2 routers, diameter 2 (validated by BFS in
// the tests). All links are untyped: deadlock avoidance is purely
// distance-based, which is the "generic diameter-2" regime of Tables I/II.
#pragma once

#include "topology/topology.hpp"

namespace flexnet {

struct SlimFlyParams {
  int p = 2;  ///< nodes per router
  int q = 5;  ///< prime with q % 4 == 1

  int num_routers() const { return 2 * q * q; }
  int num_nodes() const { return num_routers() * p; }
  int network_degree() const { return (3 * q - 1) / 2; }
};

/// True for a prime q; the MMS construction needs one with q = 1 mod 4.
bool is_prime(int q);

class SlimFly final : public Topology {
 public:
  static constexpr TopologyShape kShape{/*typed=*/false, /*diameter=*/2};

  explicit SlimFly(const SlimFlyParams& params);

  std::string name() const override;

  const SlimFlyParams& params() const { return params_; }

  /// Router identifier of (subgraph s, block index b, element e).
  RouterId router_id(int s, int b, int e) const {
    return (s * params_.q + b) * params_.q + e;
  }

  /// Blocks (s, x) act as groups for the adversarial pattern: 2q groups of
  /// q routers.
  GroupId group_of(RouterId r) const override { return r / params_.q; }
  int num_groups() const override { return 2 * params_.q; }

  PortIndex min_next_port(RouterId from, RouterId to,
                          Rng* rng = nullptr) const override;
  HopSeq min_hop_types(RouterId from, RouterId to) const override;

 private:
  void build_wiring();
  void build_routing_tables();

  SlimFlyParams params_;
  std::vector<int> residues_;      ///< nonzero quadratic residues mod q
  std::vector<int> non_residues_;  ///< quadratic non-residues mod q
  /// dist_[from][to] in {0,1,2}; next_[from][to] = list of first-hop ports
  /// of minimal routes (several for distance-2 pairs).
  std::vector<std::vector<std::uint8_t>> dist_;
  std::vector<std::vector<std::vector<PortIndex>>> next_;
};

}  // namespace flexnet
