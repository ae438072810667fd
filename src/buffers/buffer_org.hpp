// Buffer organization descriptors: how a port's memory is split between
// VCs (paper SII "Buffer organization and cost", SVI-C).
#pragma once

#include "buffers/input_buffer.hpp"

namespace flexnet {

/// Geometry of one port's buffering: every VC owns `private_per_vc` phits
/// and `shared` phits float between VCs. Statically partitioned buffers have
/// shared == 0.
struct BufferGeometry {
  int num_vcs = 1;
  int private_per_vc = 32;
  int shared = 0;

  int total() const { return num_vcs * private_per_vc + shared; }
};

enum class BufferOrg {
  kStatic,  ///< statically partitioned per-VC FIFOs (baseline & FlexVC)
  kDamq,    ///< shared pool + per-VC private reservation
};

/// Splits a port's total memory of `total_phits` among `num_vcs` VCs.
/// For a DAMQ, `private_fraction` of the total is reserved privately
/// (paper default 75%), rounded down to whole phits per VC; the remainder
/// forms the shared pool.
BufferGeometry make_geometry(BufferOrg org, int num_vcs, int total_phits,
                             double private_fraction = 0.75);

InputBuffer make_buffer(const BufferGeometry& geometry);

}  // namespace flexnet
