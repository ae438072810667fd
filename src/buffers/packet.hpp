// Packet representation.
//
// The simulator is packet-granular with phit-accurate accounting: a packet
// of `size` phits reserves its full size in a buffer on arrival (virtual
// cut-through), serializes over `size` cycles on each link, and frees its
// space when its tail leaves a buffer.
// Packets live in a PacketPool slab from injection to consumption and move
// through buffers and links as 4-byte PacketRef indices, so this struct is
// deliberately lean: per-hop diagnostics (the router trace) are kept in an
// opt-in side store (see Network / FLEXNET_DEBUG_STUCK) rather than inside
// every packet.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace flexnet {

/// Largest packet, in phits: link credits and output pipeline slots carry
/// a packet's phits in 16 bits (validate_config bounds packet_size, and
/// Network::try_inject a packet built by hand).
inline constexpr int kMaxPacketPhits = INT16_MAX;

/// Exactly one cache line (64 bytes), aligned so every pool slot is one
/// line: the allocator reads a head packet per proposal, at random slots.
struct alignas(64) Packet {
  PacketId id = -1;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int size = 8;  ///< phits (Table V: 8)
  MsgClass cls = MsgClass::kRequest;

  /// Minimal until the routing takes a non-minimal decision; FlexVC-minCred
  /// accounts credits separately by this flag (SIII-D). Set only at grant,
  /// so until the next grant it is also the kind the sender's ledger
  /// charged for the current buffer — the kind its credit must return.
  RouteKind route_kind = RouteKind::kMinimal;

  /// Valiant intermediate router; kInvalidRouter when routing minimally.
  RouterId valiant = kInvalidRouter;
  bool valiant_reached = false;

  /// Template position of the buffer currently holding the packet
  /// (negative while in an injection queue).
  int vc_position = -1;

  /// Per-link-type floors: template positions of the last local/global VC
  /// occupied (-1 when none). VC indices increase strictly per type along
  /// the path — the invariant FlexVC admissibility builds on.
  std::array<std::int16_t, 2> type_floors{-1, -1};

  /// Number of network hops taken so far (statistics).
  int hops = 0;

  Cycle created = 0;   ///< cycle the generator produced the packet
  Cycle injected = 0;  ///< cycle the head entered the network
};
static_assert(sizeof(Packet) == 64, "a Packet fills one cache line");

}  // namespace flexnet
