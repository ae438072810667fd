// Fundamental identifier and enum types shared by every flexnet module.
#pragma once

#include <cstdint>
#include <string>

namespace flexnet {

/// Simulation time in link-clock cycles.
using Cycle = std::int64_t;

/// A cycle as link and pipeline events store it: 32 bits keep those events
/// small. validate_config keeps a run's last cycle plus its link and
/// pipeline horizons within kMaxStamp, and Network::step checks it for a
/// network stepped by hand.
using Stamp = std::int32_t;
inline constexpr Cycle kMaxStamp = INT32_MAX;

/// Identifier of a computing node (terminal).
using NodeId = std::int32_t;

/// Identifier of a router.
using RouterId = std::int32_t;

/// Identifier of a Dragonfly group (or row/column aggregate in other nets).
using GroupId = std::int32_t;

/// Index of a port within one router (0-based, covers injection + network).
using PortIndex = std::int32_t;

/// Index of a virtual channel within one port (physical buffer index).
using VcIndex = std::int32_t;

/// Monotonically increasing packet identifier.
using PacketId = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr RouterId kInvalidRouter = -1;
inline constexpr PortIndex kInvalidPort = -1;
inline constexpr VcIndex kInvalidVc = -1;

/// Classification of a physical link. Low-diameter networks with
/// topology-induced path restrictions (Dragonfly, OFT) traverse link types in
/// a fixed order; untyped networks (Slim Fly) use kLocal for every network
/// link.
enum class LinkType : std::uint8_t {
  kLocal = 0,   ///< intra-group (or generic network) link
  kGlobal = 1,  ///< inter-group link
  kInjection = 2,
  kEjection = 3,
};

inline constexpr int kNumNetworkLinkTypes = 2;  // kLocal, kGlobal

/// Message class for protocol-deadlock avoidance (request/reply traffic).
enum class MsgClass : std::uint8_t {
  kRequest = 0,
  kReply = 1,
};

inline constexpr int kNumMsgClasses = 2;

/// Whether a packet is currently following a minimal route. Used by
/// FlexVC-minCred to account credits of minimally and non-minimally routed
/// packets separately (paper SIII-D).
enum class RouteKind : std::uint8_t {
  kMinimal = 0,
  kNonminimal = 1,
};

const char* to_string(LinkType t);
const char* to_string(MsgClass c);
const char* to_string(RouteKind k);

}  // namespace flexnet
