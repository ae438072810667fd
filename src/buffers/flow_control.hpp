// Flow-control scheme descriptors: the granularity at which packets move
// across links and claim downstream buffer space (ROADMAP "Flow-control
// and buffer-management axis"; cf. Graphite's flow_control_schemes).
//
//   * packet   — the original whole-packet granularity: a packet crosses a
//                link as one event and claims its full size at once. The
//                default, byte-identical to the pre-axis engine.
//   * wormhole — packets stream phit-by-phit; only the head flit must fit
//                downstream before the stream starts, body flits claim
//                space one at a time and stall in place when it runs out.
//   * vct      — virtual cut-through: flit streaming on the links, but the
//                sender reserves the whole packet's buffer space at the
//                head grant, so a blocked packet always collapses into a
//                single buffer instead of straddling routers.
#pragma once

namespace flexnet {

enum class FlowControl {
  kPacket,    ///< whole-packet events + whole-packet credit claims
  kWormhole,  ///< flit streaming, per-flit buffer claims
  kVct,       ///< flit streaming, whole-packet buffer claims at the grant
};

/// True for the schemes that segment packets into phit-sized flits.
inline bool is_flit_level(FlowControl fc) { return fc != FlowControl::kPacket; }

}  // namespace flexnet
