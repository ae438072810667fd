// Buffer-management scheme descriptors: how a sender tracks downstream
// buffer space (ROADMAP "Flow-control and buffer-management axis").
//
//   * credit — exact phit-granular credits (the original CreditLedger
//              behavior; the default).
//   * on_off — coarse backpressure: the receiver is modeled by a single
//              on/off bit with hysteresis. The sender stops starting new
//              claims while "off" (free space below the off threshold)
//              and resumes once free space recovers past the on
//              threshold. The exact free-space floor is still enforced so
//              the coarse signal can never overflow the receiver.
#pragma once

namespace flexnet {

enum class BufferMgmt {
  kCredit,  ///< exact credit counting per VC
  kOnOff,   ///< on/off backpressure with hysteresis over the credit state
};

}  // namespace flexnet
