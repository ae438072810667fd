#include "buffers/buffer_org.hpp"

#include "scenario/registry.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace flexnet {

BufferOrg parse_buffer_org(const std::string& name) {
  // Registry-backed: an unknown name enumerates the registered
  // organizations.
  return buffer_org_registry().at(name).make();
}

const char* to_string(BufferOrg org) {
  switch (org) {
    case BufferOrg::kStatic:
      return "static";
    case BufferOrg::kDamq:
      return "damq";
  }
  return "?";
}

BufferGeometry make_geometry(BufferOrg org, int num_vcs, int total_phits,
                             double private_fraction) {
  FLEXNET_CHECK(num_vcs >= 1 && total_phits >= num_vcs);
  BufferGeometry g;
  g.num_vcs = num_vcs;
  if (org == BufferOrg::kStatic) {
    g.private_per_vc = total_phits / num_vcs;
    g.shared = 0;
    return g;
  }
  FLEXNET_CHECK(private_fraction >= 0.0 && private_fraction <= 1.0);
  g.private_per_vc =
      static_cast<int>(private_fraction * total_phits) / num_vcs;
  g.shared = total_phits - num_vcs * g.private_per_vc;
  return g;
}

InputBuffer make_buffer(const BufferGeometry& geometry) {
  return InputBuffer(geometry.num_vcs, geometry.private_per_vc,
                     geometry.shared);
}

FLEXNET_REGISTER_BUFFER_ORG({
    "static",
    "statically partitioned per-VC FIFOs",
    [] { return BufferOrg::kStatic; },
    nullptr})

FLEXNET_REGISTER_BUFFER_ORG({
    "damq",
    "DAMQ: shared pool with a per-VC private reservation",
    [] { return BufferOrg::kDamq; },
    [](const SimConfig& cfg) {
      // Written so NaN, which compares false both ways, is rejected too.
      if (!(cfg.damq_private_fraction >= 0.0 &&
            cfg.damq_private_fraction <= 1.0))
        throw std::invalid_argument(
            "buffer_org 'damq' needs damq_private_fraction in [0, 1]");
    }})

}  // namespace flexnet
