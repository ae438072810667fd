// VC arrangement descriptors in the paper's "local/global" notation.
//
// A typed arrangement "4/2" means 4 VCs on every local input port and 2 on
// every global input port. Request-reply arrangements concatenate two of
// them: "4/2+2/1" gives requests 4/2 and replies 2/1 (paper SIII-B / SIII-C).
// Untyped networks (generic diameter-2 such as Slim Fly) use a single
// count: "3" or "3+2".
#pragma once

#include <string>

#include "common/types.hpp"

namespace flexnet {

struct VcArrangement {
  /// VC counts per (message class, link type).
  int req_local = 2;
  int req_global = 1;
  int rep_local = 0;  ///< zero together with rep_global = single-class traffic
  int rep_global = 0;

  /// Typed networks distinguish local/global link classes (Dragonfly);
  /// untyped networks use only the *_local counts for every network link.
  bool typed = true;

  bool has_reply() const { return rep_local > 0 || rep_global > 0; }

  /// VC count for one message class on a port of the given link type.
  int count(MsgClass cls, LinkType type) const;

  /// Total physical VCs on a network input port of the given type
  /// (request VCs first, then reply VCs).
  int vcs_per_port(LinkType type) const {
    return count(MsgClass::kRequest, type) + count(MsgClass::kReply, type);
  }

  /// Parses "4/2", "4/2+2/1", "3", "3+2". Throws std::invalid_argument on
  /// malformed input.
  static VcArrangement parse(const std::string& text);

  /// Round-trips through parse(); e.g. "4/2+2/1".
  std::string to_string() const;

  bool operator==(const VcArrangement& o) const {
    return req_local == o.req_local && req_global == o.req_global &&
           rep_local == o.rep_local && rep_global == o.rep_global &&
           typed == o.typed;
  }
};

}  // namespace flexnet
