// Unit and property tests for buffer organizations and credit accounting.
//
// InputBuffer is one concrete class covering both organizations: a
// statically partitioned buffer is the shared_capacity == 0 case, a DAMQ
// reserves private_per_vc phits per VC and shares the rest. Queues hold
// {PacketRef, phits} slots — the tests use small integers as refs, since
// the buffer never dereferences them.
#include <gtest/gtest.h>

#include <vector>

#include "buffers/buffer_org.hpp"
#include "buffers/credit_ledger.hpp"
#include "buffers/input_buffer.hpp"
#include "common/rng.hpp"

namespace flexnet {
namespace {

// --- Statically partitioned (shared == 0).

TEST(StaticInputBuffer, FifoOrderPerVc) {
  InputBuffer buf(2, 32);
  buf.push(0, /*ref=*/1, /*phits=*/8);
  buf.push(1, 2, 8);
  buf.push(0, 3, 8);
  EXPECT_FALSE(buf.is_damq());
  EXPECT_EQ(buf.front(0), 1);
  EXPECT_EQ(buf.pop(0).ref, 1);
  EXPECT_EQ(buf.pop(0).ref, 3);
  EXPECT_EQ(buf.pop(1).ref, 2);
  EXPECT_TRUE(buf.empty(0));
  EXPECT_EQ(buf.front(0), kInvalidPacketRef);
}

TEST(StaticInputBuffer, CapacityIsPerVc) {
  InputBuffer buf(2, 16);
  EXPECT_TRUE(buf.can_accept(0, 16));
  EXPECT_FALSE(buf.can_accept(0, 17));
  buf.push(0, 1, 16);
  EXPECT_FALSE(buf.can_accept(0, 1));
  EXPECT_TRUE(buf.can_accept(1, 16));  // other VC unaffected
  EXPECT_EQ(buf.free_for(0), 0);
  EXPECT_EQ(buf.free_for(1), 16);
  EXPECT_EQ(buf.total_capacity(), 32);
}

TEST(StaticInputBuffer, OccupancyTracksPhits) {
  InputBuffer buf(2, 32);
  buf.push(0, 1, 8);
  buf.push(0, 2, 8);
  buf.push(1, 3, 8);
  EXPECT_EQ(buf.occupancy(0), 16);
  EXPECT_EQ(buf.occupancy(1), 8);
  EXPECT_EQ(buf.occupancy(), 24);
  EXPECT_EQ(buf.packets(0), 2);
  const BufferSlot popped = buf.pop(0);
  EXPECT_EQ(popped.phits, 8);
  EXPECT_EQ(buf.occupancy(0), 8);
  EXPECT_EQ(buf.occupancy(), 16);
}

TEST(StaticInputBuffer, LongFifoSurvivesRingGrowth) {
  // Push far past the ring's initial capacity to exercise growth/unwrap.
  InputBuffer buf(1, 8 * 1024);
  for (int i = 0; i < 500; ++i) buf.push(0, i, 8);
  for (int i = 0; i < 250; ++i) EXPECT_EQ(buf.pop(0).ref, i);
  for (int i = 500; i < 900; ++i) buf.push(0, i, 8);
  for (int i = 250; i < 900; ++i) ASSERT_EQ(buf.pop(0).ref, i);
  EXPECT_TRUE(buf.empty(0));
  EXPECT_EQ(buf.occupancy(), 0);
}

// Every VC's ring lives in one block per port; a full ring doubles by
// rebuilding the block, so growth must carry the other VCs' live entries
// (and a wrapped head) over unchanged.
TEST(StaticInputBuffer, RingWrapAndGrowthWhileOtherVcsHoldEntries) {
  InputBuffer buf(3, 1024);
  buf.push(0, 100, 1);
  buf.push(0, 101, 2);
  buf.push(2, 200, 3);
  // Wrap VC1's ring past its initial capacity, then grow it from a
  // wrapped head through several doublings.
  for (int i = 0; i < 9; ++i) {
    buf.push(1, i, 1);
    ASSERT_EQ(buf.pop(1).ref, i);
  }
  for (int i = 0; i < 40; ++i) buf.push(1, 10 + i, 1 + i % 3);
  EXPECT_EQ(buf.packets(1), 40);
  EXPECT_EQ(buf.front(0), 100);
  EXPECT_EQ(buf.packets(0), 2);
  EXPECT_EQ(buf.occupancy(0), 3);
  EXPECT_EQ(buf.front(2), 200);
  EXPECT_EQ(buf.front_phits(2), 3);
  // Grow VC0 while VC1 holds 40 entries and VC2 one.
  for (int i = 0; i < 10; ++i) buf.push(0, 102 + i, 1);
  for (int i = 0; i < 40; ++i) {
    const BufferSlot slot = buf.pop(1);
    ASSERT_EQ(slot.ref, 10 + i);
    ASSERT_EQ(slot.phits, 1 + i % 3);
  }
  for (int i = 0; i < 12; ++i) ASSERT_EQ(buf.pop(0).ref, 100 + i);
  EXPECT_EQ(buf.pop(2).ref, 200);
  EXPECT_EQ(buf.occupancy(), 0);
  for (VcIndex vc = 0; vc < 3; ++vc) EXPECT_TRUE(buf.empty(vc));
}

TEST(StaticInputBuffer, AddPhitOnWrappedTail) {
  InputBuffer buf(2, 64);
  buf.push(1, 50, 4);  // a live neighbour VC
  for (int i = 0; i < 3; ++i) {
    buf.push(0, i, 1);
    buf.pop(0);
  }
  // Head sits at the ring's last slot; the second packet's tail wraps.
  buf.push(0, 10, 1);
  buf.push(0, 11, 1);
  buf.add_phit(0, 11);
  buf.add_phit(0, 11);
  EXPECT_EQ(buf.front_phits(0), 1);
  EXPECT_EQ(buf.occupancy(0), 4);
  // Grow from the wrapped state, then extend the new tail.
  for (int i = 12; i < 16; ++i) buf.push(0, i, 1);
  buf.add_phit(0, 15);
  EXPECT_EQ(buf.occupancy(0), 9);
  const BufferSlot first = buf.pop(0);
  EXPECT_EQ(first.ref, 10);
  EXPECT_EQ(first.phits, 1);
  EXPECT_EQ(buf.front_phits(0), 3);
  EXPECT_EQ(buf.pop(0).phits, 3);
  for (int i = 12; i < 15; ++i) EXPECT_EQ(buf.pop(0).phits, 1);
  EXPECT_EQ(buf.pop(0).phits, 2);
  EXPECT_EQ(buf.front(1), 50);
  EXPECT_EQ(buf.occupancy(), 4);
}

// --- DAMQ (shared > 0).

TEST(DamqInputBuffer, SharedPoolExtendsPrivate) {
  InputBuffer buf(2, 8, 16);  // 8 private per VC + 16 shared = 32 total
  EXPECT_TRUE(buf.is_damq());
  EXPECT_EQ(buf.total_capacity(), 32);
  EXPECT_EQ(buf.free_for(0), 24);  // own private + whole shared pool
  buf.push(0, 1, 8);               // fills private
  EXPECT_EQ(buf.shared_used(), 0);
  buf.push(0, 2, 8);  // spills into shared
  EXPECT_EQ(buf.shared_used(), 8);
  EXPECT_EQ(buf.free_for(0), 8);
  EXPECT_EQ(buf.free_for(1), 16);  // private 8 + shared remainder 8
}

TEST(DamqInputBuffer, PrivateSpaceAlwaysAvailableToOwner) {
  // One VC monopolizing the shared pool must not take another VC's private
  // reservation — the property that makes >0% reservation deadlock-free.
  InputBuffer buf(2, 8, 16);
  buf.push(0, 1, 8);
  buf.push(0, 2, 8);
  buf.push(0, 3, 8);  // occupancy 24 = private 8 + shared 16
  EXPECT_EQ(buf.shared_used(), 16);
  EXPECT_FALSE(buf.can_accept(0, 8));
  EXPECT_TRUE(buf.can_accept(1, 8));  // private reservation survives
  EXPECT_EQ(buf.free_for(1), 8);
}

TEST(DamqInputBuffer, ZeroPrivateAllowsMonopoly) {
  // With no reservation a single VC can take the whole memory — the paper's
  // Fig 10 deadlock case.
  InputBuffer buf(2, 0, 32);
  for (int i = 0; i < 4; ++i) buf.push(0, i, 8);
  EXPECT_EQ(buf.occupancy(0), 32);
  EXPECT_FALSE(buf.can_accept(1, 8));
  EXPECT_EQ(buf.free_for(1), 0);
}

TEST(DamqInputBuffer, DrainReleasesSharedFirstConsistently) {
  InputBuffer buf(2, 8, 16);
  buf.push(0, 1, 8);
  buf.push(0, 2, 8);
  buf.pop(0);
  // Occupancy 8 == private: shared fully released.
  EXPECT_EQ(buf.shared_used(), 0);
  EXPECT_EQ(buf.free_for(1), 24);
}

TEST(DamqInputBuffer, IncrementalSharedUseMatchesScanUnderRandomTraffic) {
  // Property: the incrementally tracked shared_used always equals the
  // from-scratch per-VC overflow sum the old implementation recomputed.
  Rng rng(7);
  const int private_per_vc = 8;
  InputBuffer buf(3, private_per_vc, 24);
  std::vector<std::vector<int>> sizes(3);  // mirror of queued phits per VC
  for (int step = 0; step < 5000; ++step) {
    const VcIndex vc = static_cast<VcIndex>(rng.next_below(3));
    const int phits = 4 + static_cast<int>(rng.next_below(3)) * 4;
    if (rng.next_bernoulli(0.6)) {
      if (!buf.can_accept(vc, phits)) continue;
      buf.push(vc, step, phits);
      sizes[static_cast<std::size_t>(vc)].push_back(phits);
    } else if (!buf.empty(vc)) {
      buf.pop(vc);
      auto& q = sizes[static_cast<std::size_t>(vc)];
      q.erase(q.begin());
    }
    int scan = 0;
    for (VcIndex v = 0; v < 3; ++v) {
      int occ = 0;
      for (const int s : sizes[static_cast<std::size_t>(v)]) occ += s;
      ASSERT_EQ(buf.occupancy(v), occ) << "step " << step;
      scan += std::max(0, occ - private_per_vc);
    }
    ASSERT_EQ(buf.shared_used(), scan) << "step " << step;
  }
}

TEST(DamqInputBuffer, FlitArrivalsKeepSharedAccountingUnderGrowth) {
  // Flit-level traffic: 1-phit heads that grow by add_phit, many packets
  // per VC (so rings wrap and grow). Checked against a per-VC model after
  // every operation: FIFO heads, packet counts, occupancies and the
  // shared-pool overflow sum.
  Rng rng(29);
  const int private_per_vc = 6;
  const int vcs = 3;
  InputBuffer buf(vcs, private_per_vc, 30);
  struct Queued {
    int ref;
    int phits;
  };
  std::vector<std::vector<Queued>> model(vcs);
  int next_ref = 0;
  for (int step = 0; step < 20000; ++step) {
    const VcIndex vc = static_cast<VcIndex>(rng.next_below(vcs));
    auto& q = model[static_cast<std::size_t>(vc)];
    const double op = rng.next_double();
    if (op < 0.35) {
      if (!buf.can_accept(vc, 1)) continue;
      buf.push(vc, next_ref, 1);
      q.push_back(Queued{next_ref++, 1});
    } else if (op < 0.7) {
      if (q.empty() || !buf.can_accept(vc, 1)) continue;
      buf.add_phit(vc, q.back().ref);
      ++q.back().phits;
    } else if (!q.empty()) {
      const BufferSlot slot = buf.pop(vc);
      ASSERT_EQ(slot.ref, q.front().ref) << "step " << step;
      ASSERT_EQ(slot.phits, q.front().phits) << "step " << step;
      q.erase(q.begin());
    }
    int scan = 0;
    int total = 0;
    for (VcIndex v = 0; v < vcs; ++v) {
      const auto& mq = model[static_cast<std::size_t>(v)];
      int occ = 0;
      for (const Queued& e : mq) occ += e.phits;
      ASSERT_EQ(buf.occupancy(v), occ) << "step " << step;
      ASSERT_EQ(buf.packets(v), static_cast<int>(mq.size()));
      ASSERT_EQ(buf.front(v), mq.empty() ? kInvalidPacketRef : mq.front().ref);
      ASSERT_EQ(buf.front_phits(v), mq.empty() ? 0 : mq.front().phits);
      scan += std::max(0, occ - private_per_vc);
      total += occ;
    }
    ASSERT_EQ(buf.shared_used(), scan) << "step " << step;
    ASSERT_EQ(buf.occupancy(), total);
  }
}

// --- Geometry factory.

TEST(BufferOrg, StaticSplitsEvenly) {
  const auto g = make_geometry(BufferOrg::kStatic, 4, 128);
  EXPECT_EQ(g.num_vcs, 4);
  EXPECT_EQ(g.private_per_vc, 32);
  EXPECT_EQ(g.shared, 0);
  EXPECT_EQ(g.total(), 128);
}

TEST(BufferOrg, DamqPaperSplit) {
  // Table V: 25% shared, 75% private per VC.
  const auto g = make_geometry(BufferOrg::kDamq, 2, 128, 0.75);
  EXPECT_EQ(g.private_per_vc, 48);
  EXPECT_EQ(g.shared, 32);
  EXPECT_EQ(g.total(), 128);
}

TEST(BufferOrg, DamqFullPrivateEqualsStatic) {
  const auto g = make_geometry(BufferOrg::kDamq, 2, 128, 1.0);
  EXPECT_EQ(g.private_per_vc, 64);
  EXPECT_EQ(g.shared, 0);
  // The factory then builds a statically partitioned buffer (shared == 0).
  const InputBuffer buf = make_buffer(g);
  EXPECT_FALSE(buf.is_damq());
  EXPECT_EQ(buf.free_for(0), 64);
}

TEST(BufferOrg, FactoryBuildsDamqWhenShared) {
  const InputBuffer buf = make_buffer(make_geometry(BufferOrg::kDamq, 2, 128, 0.75));
  EXPECT_TRUE(buf.is_damq());
  EXPECT_EQ(buf.total_capacity(), 128);
}

TEST(BufferOrg, ParseRoundTrips) {
  EXPECT_EQ(parse_buffer_org("static"), BufferOrg::kStatic);
  EXPECT_EQ(parse_buffer_org("damq"), BufferOrg::kDamq);
  EXPECT_THROW(parse_buffer_org("elastic"), std::invalid_argument);
}

// --- CreditLedger mirrors the receiver.

TEST(CreditLedger, StaticGeometryBasics) {
  CreditLedger ledger(2, 32, 0);
  EXPECT_EQ(ledger.free_for(0), 32);
  EXPECT_TRUE(ledger.can_send(0, 32));
  EXPECT_FALSE(ledger.can_send(0, 33));
  ledger.on_send(0, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.free_for(0), 24);
  EXPECT_EQ(ledger.occupied(0), 8);
  EXPECT_EQ(ledger.occupied_port(), 8);
  ledger.on_credit(0, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.free_for(0), 32);
  EXPECT_EQ(ledger.occupied_port(), 0);
}

TEST(CreditLedger, MinCredSeparatesRouteKinds) {
  CreditLedger ledger(2, 32, 0);
  ledger.on_send(0, 8, RouteKind::kMinimal);
  ledger.on_send(0, 8, RouteKind::kNonminimal);
  ledger.on_send(1, 8, RouteKind::kNonminimal);
  EXPECT_EQ(ledger.occupied(0), 16);
  EXPECT_EQ(ledger.occupied_min(0), 8);
  EXPECT_EQ(ledger.occupied_min(1), 0);
  EXPECT_EQ(ledger.occupied_port(), 24);
  EXPECT_EQ(ledger.occupied_min_port(), 8);
  ledger.on_credit(0, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.occupied_min(0), 0);
  EXPECT_EQ(ledger.occupied(0), 8);
}

TEST(CreditLedger, MirrorsDamqBufferExactly) {
  // Property: after any feasible sequence of sends/credits, the ledger's
  // free_for equals the downstream DAMQ's free_for.
  Rng rng(21);
  InputBuffer buf(3, 8, 24);
  CreditLedger ledger(3, 8, 24);
  struct Sent {
    int phits;
    RouteKind kind;
  };
  std::vector<Sent> sent;  // indexed by the ref pushed into the buffer
  std::vector<std::vector<int>> queued(3);  // refs per VC, FIFO
  for (int step = 0; step < 2000; ++step) {
    const VcIndex vc = static_cast<VcIndex>(rng.next_below(3));
    if (rng.next_bernoulli(0.6)) {
      const int phits = 4 + static_cast<int>(rng.next_below(3)) * 4;
      const RouteKind kind = rng.next_bernoulli(0.5) ? RouteKind::kMinimal
                                                     : RouteKind::kNonminimal;
      if (ledger.can_send(vc, phits)) {
        EXPECT_TRUE(buf.can_accept(vc, phits)) << "ledger overpromised";
        ledger.on_send(vc, phits, kind);
        const int ref = static_cast<int>(sent.size());
        sent.push_back(Sent{phits, kind});
        buf.push(vc, ref, phits);
        queued[static_cast<std::size_t>(vc)].push_back(ref);
      }
    } else if (!buf.empty(vc)) {
      const BufferSlot slot = buf.pop(vc);
      auto& q = queued[static_cast<std::size_t>(vc)];
      ASSERT_EQ(slot.ref, q.front());
      q.erase(q.begin());
      const Sent& s = sent[static_cast<std::size_t>(slot.ref)];
      ASSERT_EQ(slot.phits, s.phits);
      ledger.on_credit(vc, s.phits, s.kind);
    }
    for (VcIndex v = 0; v < 3; ++v) {
      ASSERT_EQ(ledger.free_for(v), buf.free_for(v)) << "step " << step;
      ASSERT_EQ(ledger.occupied(v), buf.occupancy(v));
    }
    ASSERT_EQ(ledger.occupied_port(), buf.occupancy());
  }
}

TEST(CreditLedger, AtItsVcCountLimit) {
  // Per-VC counters sit inline: the last VC is as independent as the first.
  constexpr int kVcs = CreditLedger::kMaxVcs;
  CreditLedger ledger(kVcs, 4, 8);
  EXPECT_EQ(ledger.num_vcs(), kVcs);
  EXPECT_EQ(ledger.capacity_port(), kVcs * 4 + 8);
  for (VcIndex v = 0; v < kVcs; ++v)
    ledger.on_send(v, 4, v % 2 == 0 ? RouteKind::kMinimal
                                    : RouteKind::kNonminimal);
  EXPECT_EQ(ledger.free_for(kVcs - 1), 8);  // private full, shared left
  ledger.on_send(kVcs - 1, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.occupied(kVcs - 1), 12);
  EXPECT_EQ(ledger.occupied_min(kVcs - 1), 8);
  EXPECT_EQ(ledger.occupied_min(kVcs - 2), 4);
  EXPECT_EQ(ledger.occupied_port(), ledger.capacity_port());
  EXPECT_EQ(ledger.occupied_min_port(), kVcs / 2 * 4 + 8);
  for (VcIndex v = 0; v < kVcs; ++v) EXPECT_FALSE(ledger.can_send(v, 1));
  ledger.on_credit(kVcs - 1, 8, RouteKind::kMinimal);
  EXPECT_EQ(ledger.free_for(0), 8);  // the shared pool is back for VC 0
  EXPECT_EQ(ledger.occupied(0), 4);
  EXPECT_DEATH(CreditLedger(kVcs + 1, 4, 0), "1 to 16 VCs");
}

TEST(CreditLedger, ConservationInvariant) {
  // occupied + free == capacity for the port under static geometry.
  CreditLedger ledger(2, 16, 0);
  ledger.on_send(0, 8, RouteKind::kMinimal);
  ledger.on_send(1, 16, RouteKind::kNonminimal);
  int free_total = 0;
  for (VcIndex v = 0; v < 2; ++v) free_total += ledger.free_for(v);
  EXPECT_EQ(ledger.occupied_port() + free_total, ledger.capacity_port());
}

}  // namespace
}  // namespace flexnet
