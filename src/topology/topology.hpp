// Topology interface: static wiring and minimal-path structure of a
// direct low-diameter network.
//
// A topology describes only the network ports of each router (injection and
// ejection are owned by the node/network layer). Routing algorithms consume
// the minimal next-hop and hop-type-sequence queries; the FlexVC policy uses
// the hop-type sequences as intended/escape paths.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/prefetch.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/hop_seq.hpp"

namespace flexnet {

/// What a topology family fixes before any instance is built: whether its
/// links are typed (Dragonfly local/global) or all untyped, and its
/// diameter in router hops. validate_config checks the VC arrangement
/// against the routing's reference path on this shape.
struct TopologyShape {
  bool typed = false;
  int diameter = 0;
};

/// One network port of a router.
struct PortDesc {
  LinkType type = LinkType::kLocal;
  RouterId neighbor = kInvalidRouter;
  PortIndex neighbor_port = kInvalidPort;
};

class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::string name() const = 0;

  int num_routers() const {
    return static_cast<int>(port_index_.size()) - 1;
  }
  int num_nodes() const { return num_routers() * concentration_; }

  /// Computing nodes attached per router (the paper's p).
  int concentration() const { return concentration_; }

  RouterId router_of_node(NodeId n) const { return n / concentration_; }
  NodeId first_node_of_router(RouterId r) const { return r * concentration_; }

  int num_network_ports(RouterId r) const {
    return port_index_[static_cast<std::size_t>(r) + 1] -
           port_index_[static_cast<std::size_t>(r)];
  }

  /// Sum / maximum of num_network_ports over all routers — the sizes the
  /// network layer uses for its flat link arrays and hot-path scratch.
  int total_network_ports() const;
  int max_network_ports() const;

  /// Starts loading router r's port table (a hint: the allocator's state
  /// gather starts it before routing any of r's heads).
  void prefetch_ports(RouterId r) const {
    const PortDesc* first =
        ports_.data() + port_index_[static_cast<std::size_t>(r)];
    prefetch_lines(first, first + num_network_ports(r));
  }

  const PortDesc& port(RouterId r, PortIndex p) const {
    return ports_[static_cast<std::size_t>(
        port_index_[static_cast<std::size_t>(r)] + p)];
  }

  /// True when the network has topology-induced link-type restrictions
  /// (Dragonfly local/global); untyped networks report every link as local.
  bool typed() const { return shape_.typed; }

  int diameter() const { return shape_.diameter; }

  /// Group of a router — the unit the adversarial traffic pattern shifts by
  /// one (Dragonfly groups; for ungrouped networks each router is its own
  /// group).
  virtual GroupId group_of(RouterId r) const { return r; }
  virtual int num_groups() const { return num_routers(); }

  /// Port of the first hop of a minimal route from `from` to `to`.
  /// Topologies with equal-length minimal alternatives (e.g. the 2-hop
  /// routes of a Slim Fly MMS(13)) break ties with `rng` when provided.
  virtual PortIndex min_next_port(RouterId from, RouterId to,
                                  Rng* rng = nullptr) const = 0;

  /// True when min_next_port never consumes the tie-break RNG: the minimal
  /// first hop is unique for every (from, to) pair (Dragonfly). Topologies
  /// with equal-length minimal alternatives return false, which keeps the
  /// allocator from sleeping blocked uncommitted heads (their re-route
  /// would re-draw, and byte-equality pins the RNG stream).
  virtual bool min_port_unique() const { return false; }

  /// Link-type sequence of a minimal route from `from` to `to` (worst case
  /// over tie-breaks; all minimal alternatives have the same type counts in
  /// the supported topologies). Empty when from == to.
  virtual HopSeq min_hop_types(RouterId from, RouterId to) const = 0;

  /// Minimal distance in hops.
  int min_distance(RouterId from, RouterId to) const {
    return min_hop_types(from, to).size();
  }

  RouterId random_router(Rng& rng) const {
    return static_cast<RouterId>(
        rng.next_below(static_cast<std::uint64_t>(num_routers())));
  }

 protected:
  Topology(int concentration, const TopologyShape& shape)
      : concentration_(concentration), shape_(shape) {}

  /// Subclasses size the wiring here, then fill it via set_port.
  void resize_routers(int n, int ports_per_router) {
    port_index_.resize(static_cast<std::size_t>(n) + 1);
    for (int r = 0; r <= n; ++r)
      port_index_[static_cast<std::size_t>(r)] = r * ports_per_router;
    ports_.assign(static_cast<std::size_t>(n) *
                      static_cast<std::size_t>(ports_per_router),
                  PortDesc{});
  }

  void set_port(RouterId r, PortIndex p, const PortDesc& desc) {
    ports_[static_cast<std::size_t>(
        port_index_[static_cast<std::size_t>(r)] + p)] = desc;
  }

  /// Verifies that the wiring is a symmetric involution: every port connects
  /// to a port that connects back, with matching link types. Aborts on
  /// inconsistency (a wiring bug would silently corrupt every experiment).
  void validate_wiring() const;

 private:
  int concentration_;
  TopologyShape shape_;
  // Every router's ports in one flat array: router r owns
  // [port_index_[r], port_index_[r + 1]) (the table carries a sentinel).
  std::vector<PortDesc> ports_;
  std::vector<int> port_index_ = {0};
};

/// BFS hop distances from `from` to every router — the reference oracle the
/// tests compare minimal routing against.
std::vector<int> bfs_distances(const Topology& topo, RouterId from);

}  // namespace flexnet
