// Fixed-capacity sequence of link types describing (part of) a packet path.
//
// Paths in low-diameter networks are short (a Dragonfly PAR path has at most
// 7 hops), so a small inline array avoids allocation in the per-hop routing
// fast path.
#pragma once

#include <array>
#include <initializer_list>
#include <string>

#include "common/check.hpp"
#include "common/types.hpp"

namespace flexnet {

class HopSeq {
 public:
  static constexpr int kCapacity = 16;

  HopSeq() = default;

  HopSeq(std::initializer_list<LinkType> types) {
    for (LinkType t : types) push_back(t);
  }

  void push_back(LinkType t) {
    FLEXNET_DCHECK(size_ < kCapacity);
    types_[static_cast<std::size_t>(size_++)] = t;
  }

  void clear() { size_ = 0; }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  LinkType operator[](int i) const {
    FLEXNET_DCHECK(i >= 0 && i < size_);
    return types_[static_cast<std::size_t>(i)];
  }

  const LinkType* begin() const { return types_.data(); }
  const LinkType* end() const { return types_.data() + size_; }

  /// Number of hops of the given type in the sequence.
  int count(LinkType t) const {
    int n = 0;
    for (int i = 0; i < size_; ++i)
      if (types_[static_cast<std::size_t>(i)] == t) ++n;
    return n;
  }

  /// Sequence without the first hop (the remainder after taking one hop).
  HopSeq tail() const {
    HopSeq out;
    for (int i = 1; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

  /// Concatenation of two path segments (e.g. Valiant = min(src, VR) +
  /// min(VR, dst)).
  HopSeq operator+(const HopSeq& rhs) const {
    HopSeq out = *this;
    for (LinkType t : rhs) out.push_back(t);
    return out;
  }

  bool operator==(const HopSeq& rhs) const {
    if (size_ != rhs.size_) return false;
    for (int i = 0; i < size_; ++i)
      if ((*this)[i] != rhs[i]) return false;
    return true;
  }

  /// Bits a code() occupies: the length in the low kCodeLengthBits, then
  /// one bit per hop (set for a global hop).
  static constexpr int kCodeLengthBits = 5;
  static constexpr int kCodeBits = kCodeLengthBits + kCapacity;

  /// Length plus type bits in one integer: equal codes mean equal
  /// sequences of network hops (the VC policy keys its table on it).
  std::uint32_t code() const {
    std::uint32_t bits = 0;
    for (int i = 0; i < size_; ++i) {
      const LinkType t = types_[static_cast<std::size_t>(i)];
      FLEXNET_DCHECK(t == LinkType::kLocal || t == LinkType::kGlobal);
      if (t == LinkType::kGlobal) bits |= std::uint32_t{1} << i;
    }
    return static_cast<std::uint32_t>(size_) | bits << kCodeLengthBits;
  }

  /// Compact form such as "lgllgl" (l=local, g=global).
  std::string to_string() const {
    std::string out;
    for (LinkType t : *this)
      out += (t == LinkType::kGlobal) ? 'g' : 'l';
    return out;
  }

 private:
  std::array<LinkType, kCapacity> types_{};
  int size_ = 0;
};

}  // namespace flexnet
