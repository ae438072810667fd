#include "buffers/buffer_org.hpp"

#include "common/check.hpp"

namespace flexnet {

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

}  // namespace flexnet
