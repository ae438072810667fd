// Component registry: the string-keyed construction layer every simulation
// component family (topologies, routing algorithms, VC policies, VC
// selection functions, traffic patterns, buffer organizations) registers
// itself with. Network/Node dispatch through registry lookups instead of
// hard-coded if-chains, so
//   * an unknown name fails with an error that enumerates the registered
//     alternatives ("unknown routing 'ugl' — registered: min, par, ...");
//   * new components are one REGISTER_* block in their own translation
//     unit, with no edits to the dispatch sites;
//   * registries are introspectable (Registry::names(), list_registries())
//     — `flexnet_run --list` prints every registered component.
//
// Each entry carries a name, a one-line description, a factory payload,
// and an optional validate(SimConfig) hook that rejects configurations the
// component cannot run (e.g. Piggyback routing off a Dragonfly) *before*
// any simulation state is built — suite files surface these per series.
//
// Registration happens from namespace-scope registrar objects during
// static initialization (the REGISTER macros below); lookups start after
// main() begins, so no locking is needed. The registries live behind
// function-local accessors, immune to initialization-order hazards. The
// flexnet library is linked as a CMake OBJECT library so registrars in
// translation units nothing references explicitly still run.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "buffers/buffer_mgmt.hpp"
#include "buffers/buffer_org.hpp"
#include "buffers/flow_control.hpp"
#include "core/vc_policy.hpp"
#include "core/vc_selection.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "topology/topology.hpp"
#include "traffic/traffic.hpp"

namespace flexnet {

/// Registry misuse or lookup failure. Derives from std::invalid_argument
/// so the legacy parse_*/make_* call sites keep their exception contract.
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
    Payload make{};
    /// Optional: throws (std::invalid_argument preferred) when `make`
    /// cannot serve this configuration. Runs before network construction.
    std::function<void(const SimConfig&)> validate;
  };

  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers `entry`; duplicate or empty names are a RegistryError.
  void add(Entry entry) {
    if (entry.name.empty())
      throw RegistryError("cannot register a " + kind_ + " with an empty name");
    const auto pos = lower_bound(entry.name);
    if (pos != entries_.end() && pos->name == entry.name)
      throw RegistryError("duplicate " + kind_ + " '" + entry.name +
                          "' registration");
    entries_.insert(pos, std::move(entry));
  }

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
  std::size_t size() const { return entries_.size(); }

 private:
  typename std::vector<Entry>::iterator lower_bound(const std::string& name) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry& e, const std::string& n) { return e.name < n; });
  }
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
/// `reference_path` is the routing's worst-case path on a topology of a
/// given shape; validate_config checks that the VC arrangement holds it.
struct RoutingFactory {
  std::function<std::unique_ptr<RoutingAlgorithm>(const RoutingContext&)>
      build;
  HopSeq (*reference_path)(const TopologyShape&) = nullptr;

  std::unique_ptr<RoutingAlgorithm> operator()(
      const RoutingContext& ctx) const {
    return build(ctx);
  }
};

using VcPolicyFactory =
    std::function<std::unique_ptr<VcPolicy>(const VcArrangement&)>;
using VcSelectionFactory = std::function<VcSelection()>;
using BufferOrgFactory = std::function<BufferOrg()>;
using FlowControlFactory = std::function<FlowControl()>;
using BufferMgmtFactory = std::function<BufferMgmt()>;

Registry<TopologyFactory>& topology_registry();
Registry<VcPolicyFactory>& vc_policy_registry();
Registry<RoutingFactory>& routing_registry();
Registry<VcSelectionFactory>& vc_selection_registry();
Registry<TrafficFactories>& traffic_registry();
Registry<BufferOrgFactory>& buffer_org_registry();
Registry<FlowControlFactory>& flow_control_registry();
Registry<BufferMgmtFactory>& buffer_mgmt_registry();

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

namespace detail {
/// Registrar: runs a registration at static-initialization time. A
/// registration error (duplicate name, empty name) there cannot be a
/// catchable exception — it would escape dynamic initialization and hit
/// std::terminate with no context — so it prints the message and aborts.
/// Runtime Registry::add() calls keep the catchable RegistryError.
struct Registrar {
  template <typename Fn>
  explicit Registrar(Fn fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flexnet component registration failed: %s\n",
                   e.what());
      std::abort();
    }
  }
};
}  // namespace detail

#define FLEXNET_REGISTRY_CONCAT_INNER(a, b) a##b
#define FLEXNET_REGISTRY_CONCAT(a, b) FLEXNET_REGISTRY_CONCAT_INNER(a, b)

/// Registers an Entry into `registry_accessor()` at static init. Use the
/// kind-specific wrappers below; `...` is a braced Entry initializer.
#define FLEXNET_REGISTER_COMPONENT(registry_accessor, ...)             \
  namespace {                                                          \
  const ::flexnet::detail::Registrar FLEXNET_REGISTRY_CONCAT(          \
      flexnet_registrar_, __LINE__)(                                   \
      [] { ::flexnet::registry_accessor().add(__VA_ARGS__); });        \
  }

#define FLEXNET_REGISTER_TOPOLOGY(...) \
  FLEXNET_REGISTER_COMPONENT(topology_registry, __VA_ARGS__)
#define FLEXNET_REGISTER_VC_POLICY(...) \
  FLEXNET_REGISTER_COMPONENT(vc_policy_registry, __VA_ARGS__)
#define FLEXNET_REGISTER_ROUTING(...) \
  FLEXNET_REGISTER_COMPONENT(routing_registry, __VA_ARGS__)
#define FLEXNET_REGISTER_VC_SELECTION(...) \
  FLEXNET_REGISTER_COMPONENT(vc_selection_registry, __VA_ARGS__)
#define FLEXNET_REGISTER_TRAFFIC(...) \
  FLEXNET_REGISTER_COMPONENT(traffic_registry, __VA_ARGS__)
#define FLEXNET_REGISTER_BUFFER_ORG(...) \
  FLEXNET_REGISTER_COMPONENT(buffer_org_registry, __VA_ARGS__)
#define FLEXNET_REGISTER_FLOW_CONTROL(...) \
  FLEXNET_REGISTER_COMPONENT(flow_control_registry, __VA_ARGS__)
#define FLEXNET_REGISTER_BUFFER_MGMT(...) \
  FLEXNET_REGISTER_COMPONENT(buffer_mgmt_registry, __VA_ARGS__)

}  // namespace flexnet
