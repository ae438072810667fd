// Component registry: the string-keyed construction layer for every
// simulation component family (topologies, routing algorithms, VC
// policies, VC selection functions, traffic patterns, buffer
// organizations, flow control and buffer management). Network/Node
// dispatch through registry lookups instead of hard-coded if-chains, so
//   * an unknown name fails with an error that enumerates the registered
//     alternatives ("unknown routing 'ugl' — registered: min, par, ...");
//   * a new component is one entry in its family's table in
//     src/scenario/registry.cpp, with no edits to the dispatch sites;
//   * registries are introspectable (Registry::names(), list_registries())
//     — `flexnet_run --list` prints every registered component.
//
// Each entry carries a name, a one-line description, a payload (the
// family's factory, or for the enum-like families the enum value itself),
// and an optional validate(SimConfig) hook that rejects configurations the
// component cannot run (e.g. Piggyback routing off a Dragonfly) *before*
// any simulation state is built — suite files surface these per series.
//
// Each family's table is written out in one place, its accessor in
// registry.cpp; the Registry is built from it on first use (a thread-safe
// function-local static) and sorted by name. Nothing registers itself, so
// the components need not know this layer exists.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "buffers/buffer_mgmt.hpp"
#include "buffers/buffer_org.hpp"
#include "buffers/flow_control.hpp"
#include "core/canonical_paths.hpp"
#include "core/vc_policy.hpp"
#include "core/vc_selection.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {

/// A malformed table (empty or duplicate name) or an unknown name. Derives
/// from std::invalid_argument, the exception every config error throws.
class RegistryError : public std::invalid_argument {
 public:
  explicit RegistryError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// One family of components, keyed by name. `Payload` is the family's
/// factory type (or plain value for enum-like families).
template <typename Payload>
class Registry {
 public:
  struct Entry {
    std::string name;
    std::string description;  ///< one line, shown by --list
    Payload make{};  ///< the factory, or the enum value itself
    /// Optional: throws (std::invalid_argument preferred) when `make`
    /// cannot serve this configuration. Runs before network construction.
    std::function<void(const SimConfig&)> validate{};
  };

  /// Sorts `table` by name. An empty or duplicate name is a RegistryError
  /// naming the family and the name.
  Registry(std::string kind, std::vector<Entry> table)
      : kind_(std::move(kind)), entries_(std::move(table)) {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.name < b.name; });
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].name.empty())
        throw RegistryError("the " + kind_ + " table has an entry with an "
                            "empty name ''");
      if (i > 0 && entries_[i].name == entries_[i - 1].name)
        throw RegistryError("duplicate " + kind_ + " '" + entries_[i].name +
                            "' in the " + kind_ + " table");
    }
  }

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  const Entry* find(const std::string& name) const {
    const auto pos = lower_bound(name);
    return pos != entries_.end() && pos->name == name ? &*pos : nullptr;
  }

  /// Lookup that fails loudly: the error enumerates every registered name.
  const Entry& at(const std::string& name) const {
    if (const Entry* e = find(name)) return *e;
    std::string msg = "unknown " + kind_ + " '" + name + "' — registered:";
    if (entries_.empty()) {
      msg += " (none)";
    } else {
      for (std::size_t i = 0; i < entries_.size(); ++i)
        msg += (i == 0 ? " " : ", ") + entries_[i].name;
    }
    throw RegistryError(msg);
  }

  /// Registered names, sorted; stable across runs by construction.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.name);
    return out;
  }

  /// Entries in name order (the iteration order of --list).
  const std::vector<Entry>& entries() const { return entries_; }

  const std::string& kind() const { return kind_; }

 private:
  typename std::vector<Entry>::const_iterator lower_bound(
      const std::string& name) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry& e, const std::string& n) { return e.name < n; });
  }

  std::string kind_;
  std::vector<Entry> entries_;  ///< kept name-sorted
};

/// Everything a routing factory may need: the built topology, the
/// congestion oracle (the Network), the full configuration, and the parsed
/// VC arrangement (Piggyback derives its sensed VCs from it).
struct RoutingContext {
  const Topology& topo;
  CongestionOracle& oracle;
  const SimConfig& config;
  const VcArrangement& arrangement;
};

/// Traffic is two factories: the destination pattern and the injection
/// process. `request_load` is the node's per-class offered load (half the
/// configured load under reactive traffic).
struct TrafficFactories {
  std::function<std::unique_ptr<TrafficPattern>(const Topology&,
                                                const SimConfig&)>
      pattern;
  std::function<InjectionProcess(const SimConfig&, double request_load)>
      process;
};

/// Builds a topology, called like the plain factory it wraps. `shape` is
/// what every topology it builds reports, known without building one.
struct TopologyFactory {
  std::function<std::unique_ptr<Topology>(const SimConfig&)> build;
  TopologyShape shape;

  std::unique_ptr<Topology> operator()(const SimConfig& cfg) const {
    return build(cfg);
  }
};

/// Builds a routing algorithm, called like the plain factory it wraps.
/// `typed` and `untyped` name its canonical routing (core/canonical_paths)
/// on a Dragonfly and on a generic diameter-2 network (Slim Fly, the one
/// untyped topology); validate_config embeds the shape's full path.
struct RoutingFactory {
  std::function<std::unique_ptr<RoutingAlgorithm>(const RoutingContext&)>
      build;
  CanonicalRouting (*typed)() = nullptr;
  CanonicalRouting (*untyped)() = nullptr;

  /// The link types of the full canonical path on a topology of `shape`.
  HopSeq reference_path(const TopologyShape& shape) const {
    return types_of((shape.typed ? typed : untyped)().full);
  }

  std::unique_ptr<RoutingAlgorithm> operator()(
      const RoutingContext& ctx) const {
    return build(ctx);
  }
};

using VcPolicyFactory =
    std::function<std::unique_ptr<VcPolicy>(const VcArrangement&)>;

const Registry<TopologyFactory>& topology_registry();
const Registry<VcPolicyFactory>& vc_policy_registry();
const Registry<RoutingFactory>& routing_registry();
const Registry<VcSelection>& vc_selection_registry();
const Registry<TrafficFactories>& traffic_registry();
const Registry<BufferOrg>& buffer_org_registry();
const Registry<FlowControl>& flow_control_registry();
const Registry<BufferMgmt>& buffer_mgmt_registry();

/// Checks every component name in `cfg` against its registry (unknown
/// names enumerate the alternatives), runs each entry's validate hook,
/// parses the VC arrangement string, range-checks the latencies, buffer
/// and packet sizes, allocator settings, watchdog and sim_domains (naming
/// the key), and checks the arrangement against the topology's shape, the
/// traffic's reply class and the routing's reference path. Throws
/// std::invalid_argument (RegistryError for name lookups) on the first
/// failure. Builds no topology: everything here is decided by `cfg`.
void validate_config(const SimConfig& cfg);

/// Introspection snapshot of every registry, for --list and the docs.
struct ComponentInfo {
  std::string name;
  std::string description;
};
struct RegistryListing {
  std::string kind;
  std::vector<ComponentInfo> components;  ///< name-sorted
};
std::vector<RegistryListing> list_registries();

}  // namespace flexnet
