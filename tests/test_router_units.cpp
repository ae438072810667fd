// Router microarchitecture units: round-robin arbiter, output unit, and
// the timing wheel that schedules the link phases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory_resource>
#include <vector>

#include "common/event_lane.hpp"
#include "router/arbiter.hpp"
#include "router/output_unit.hpp"

namespace flexnet {
namespace {

TEST(RoundRobinArbiter, GrantsSingleRequester) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate([](int i) { return i == 2; }), 2);
  EXPECT_EQ(arb.pointer(), 3);
}

TEST(RoundRobinArbiter, NoRequestersReturnsMinusOne) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.arbitrate([](int) { return false; }), -1);
  EXPECT_EQ(arb.pointer(), 0);  // pointer unchanged
}

TEST(RoundRobinArbiter, RotatesFairlyUnderFullLoad) {
  RoundRobinArbiter arb(5);
  std::map<int, int> grants;
  for (int i = 0; i < 100; ++i)
    ++grants[arb.arbitrate([](int) { return true; })];
  for (int i = 0; i < 5; ++i) EXPECT_EQ(grants[i], 20);
}

TEST(RoundRobinArbiter, StrongFairnessBound) {
  // Every persistent requester is served within `width` grants.
  RoundRobinArbiter arb(8);
  int since_last = 0;
  for (int i = 0; i < 200; ++i) {
    const int granted = arb.arbitrate([](int) { return true; });
    if (granted == 3) {
      EXPECT_LE(since_last, 8);
      since_last = 0;
    } else {
      ++since_last;
    }
  }
}

TEST(RoundRobinArbiter, PeekDoesNotMovePointer) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.peek([](int i) { return i == 1; }), 1);
  EXPECT_EQ(arb.pointer(), 0);
  arb.advance_past(1);
  EXPECT_EQ(arb.pointer(), 2);
}

TEST(OutputUnit, PipelineLatencyIsExact) {
  OutputUnit ou(/*buffer=*/32, /*pipeline=*/5);
  ou.accept(/*ref=*/1, /*phits=*/8, /*vc=*/0, /*now=*/100);
  for (Cycle t = 100; t < 105; ++t)
    EXPECT_FALSE(ou.ready_to_send(t)) << t;
  EXPECT_TRUE(ou.ready_to_send(105));
}

TEST(OutputUnit, ReservationAndRelease) {
  OutputUnit ou(32, 5);
  EXPECT_TRUE(ou.can_reserve(32));
  ou.accept(1, 8, 0, 0);
  EXPECT_EQ(ou.occupancy(), 8);
  EXPECT_TRUE(ou.can_reserve(24));
  EXPECT_FALSE(ou.can_reserve(25));
  ou.accept(2, 8, 0, 0);
  ou.accept(3, 8, 0, 0);
  ou.accept(4, 8, 0, 0);
  EXPECT_FALSE(ou.can_reserve(8));  // full: 4 x 8 = 32
  ou.start_send(5);
  EXPECT_EQ(ou.occupancy(), 24);
  EXPECT_TRUE(ou.can_reserve(8));
}

TEST(OutputUnit, LinkSerializationBlocksNextSend) {
  OutputUnit ou(32, 1);
  ou.accept(1, 8, 0, 0);
  ou.accept(2, 8, 1, 0);
  ASSERT_TRUE(ou.ready_to_send(1));
  EXPECT_EQ(ou.start_send(1).vc, 0);
  // The link is busy for 8 cycles (1 phit/cycle).
  for (Cycle t = 1; t < 9; ++t) EXPECT_FALSE(ou.ready_to_send(t)) << t;
  ASSERT_TRUE(ou.ready_to_send(9));
  EXPECT_EQ(ou.start_send(9).vc, 1);
}

TEST(OutputUnit, FifoOrderPreserved) {
  OutputUnit ou(64, 0);
  for (int i = 0; i < 4; ++i)
    ou.accept(/*ref=*/i, /*phits=*/8, static_cast<VcIndex>(i), 0);
  Cycle now = 0;
  for (int i = 0; i < 4; ++i) {
    while (!ou.ready_to_send(now)) ++now;
    const OutputUnit::Departure d = ou.start_send(now);
    EXPECT_EQ(d.ref, i);
    EXPECT_EQ(d.phits, 8);
    EXPECT_EQ(d.vc, i);
  }
}

TEST(OutputUnit, DepartureCarriesTheAcceptedInLink) {
  // The inbound link a flit stream's tail arrives on rides through the
  // pipeline with its packet; accept() without one leaves it at -1.
  OutputUnit ou(64, 0);
  ou.accept(/*ref=*/1, /*phits=*/8, /*vc=*/0, /*now=*/0, /*in_link=*/7);
  ou.accept(/*ref=*/2, /*phits=*/8, /*vc=*/1, /*now=*/0);
  EXPECT_EQ(ou.start_send(0).in_link, 7);
  EXPECT_EQ(ou.start_send(8).in_link, -1);
}

TEST(OutputUnit, NextReadyIsTheEarliestStart) {
  OutputUnit ou(64, 5);
  ou.accept(/*ref=*/1, /*phits=*/8, /*vc=*/0, /*now=*/0);
  EXPECT_EQ(ou.next_ready(), 5);  // pipeline exit
  ou.start_send(5);
  ou.accept(/*ref=*/2, /*phits=*/8, /*vc=*/0, /*now=*/6);
  EXPECT_EQ(ou.next_ready(), 13);  // previous packet still serializing
  for (Cycle t = 6; t < 13; ++t) EXPECT_FALSE(ou.ready_to_send(t)) << t;
  EXPECT_TRUE(ou.ready_to_send(13));
}

// Drains the wheel's bucket at `now`, dropping every id; returns the ids
// in visit order.
std::vector<std::int32_t> sweep_ids(TimingWheel& w, Cycle now) {
  std::vector<std::int32_t> seen;
  w.sweep(now, [&](std::int32_t id) {
    seen.push_back(id);
    return TimingWheel::kIdle;
  });
  return seen;
}

TEST(TimingWheel, SpanIsThePowerOfTwoAboveTheHorizon) {
  TimingWheel w;
  w.resize(10, 0);
  EXPECT_EQ(w.span(), 1);
  w.resize(10, 100);
  EXPECT_EQ(w.span(), 128);
  w.resize(10, 128);
  EXPECT_EQ(w.span(), 256);
}

TEST(TimingWheel, BucketVisitsAscendingIds) {
  TimingWheel w;
  w.resize(300, 7);
  // Added out of order and across word boundaries.
  for (const std::int32_t id : {257, 3, 64, 130, 0, 63, 299, 65})
    w.add(id, 4);
  w.add(5, 3);  // another bucket: not visited at 4
  EXPECT_TRUE(sweep_ids(w, 2).empty());
  EXPECT_EQ(sweep_ids(w, 3), (std::vector<std::int32_t>{5}));
  EXPECT_EQ(sweep_ids(w, 4),
            (std::vector<std::int32_t>{0, 3, 63, 64, 65, 130, 257, 299}));
  EXPECT_TRUE(sweep_ids(w, 4).empty()) << "a sweep empties its bucket";
}

TEST(TimingWheel, WrapsAroundTheSpan) {
  TimingWheel w;
  w.resize(16, 3);  // span 4
  ASSERT_EQ(w.span(), 4);
  // Cycle 6 and cycle 2 share bucket 2; an id filed at 6 after the sweep
  // of 2 is visited at 6, not early.
  w.add(1, 2);
  EXPECT_EQ(sweep_ids(w, 2), (std::vector<std::int32_t>{1}));
  w.add(9, 6);
  for (Cycle c = 3; c < 6; ++c) EXPECT_TRUE(sweep_ids(w, c).empty()) << c;
  EXPECT_EQ(sweep_ids(w, 6), (std::vector<std::int32_t>{9}));
  // A long-lived id rescheduled one span minus one ahead keeps its phase
  // across many laps of the ring.
  w.add(4, 7);
  std::vector<Cycle> visits;
  for (Cycle now = 7; now < 40; ++now) {
    w.sweep(now, [&](std::int32_t id) {
      EXPECT_EQ(id, 4);
      visits.push_back(now);
      return now + w.span() - 1;
    });
  }
  EXPECT_EQ(visits, (std::vector<Cycle>{7, 10, 13, 16, 19, 22, 25, 28, 31,
                                         34, 37}));
}

TEST(TimingWheel, VisitsRescheduleIntoFutureBuckets) {
  TimingWheel w;
  w.resize(128, 15);  // span 16
  for (std::int32_t id = 0; id < 128; id += 9) w.add(id, 0);
  // Each visit files its id `id % 5 + 1` cycles ahead; the current bucket
  // never grows under its own sweep, and every id reappears exactly when
  // due.
  std::vector<std::int32_t> first = sweep_ids(w, 0);
  for (const std::int32_t id : first) w.add(id, id % 5 + 1);
  for (Cycle now = 1; now <= 5; ++now) {
    std::vector<std::int32_t> want;
    for (const std::int32_t id : first)
      if (id % 5 + 1 == now) want.push_back(id);
    std::vector<std::int32_t> got;
    w.sweep(now, [&](std::int32_t id) {
      got.push_back(id);
      return now + 10;  // re-add during the sweep, into a later bucket
    });
    EXPECT_EQ(got, want) << "cycle " << now;
  }
  // The ids re-added at now + 10 come back in their new buckets only.
  for (Cycle now = 6; now <= 10; ++now) EXPECT_TRUE(sweep_ids(w, now).empty());
  std::size_t back = 0;
  for (Cycle now = 11; now <= 15; ++now) back += sweep_ids(w, now).size();
  EXPECT_EQ(back, first.size());
}

TEST(TimingWheel, SizeCountsScheduledIds) {
  TimingWheel w;
  w.resize(200, 31);
  EXPECT_EQ(w.size(), 0u);
  w.add(7, 3);
  w.add(7, 3);  // idempotent within a bucket
  w.add(150, 3);
  w.add(8, 20);
  EXPECT_EQ(w.size(), 3u);
  // One id dropped, one kept (rescheduled), at cycle 3.
  w.sweep(3, [](std::int32_t id) {
    return id == 7 ? TimingWheel::kIdle : Cycle{9};
  });
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(sweep_ids(w, 9), (std::vector<std::int32_t>{150}));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(sweep_ids(w, 20), (std::vector<std::int32_t>{8}));
  EXPECT_EQ(w.size(), 0u);
  w.add(1, 5);
  w.resize(200, 31);  // resizing empties the wheel
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(sweep_ids(w, 5).empty());
}

// for_each_ahead visits every id once, in order, and hands each id to
// every round of the hook once, in round order, before the id's visit:
// for lists shorter than the lookahead, as long, and longer.
TEST(ForEachAhead, EveryIdGoesThroughEveryRoundBeforeItsVisit) {
  constexpr int kRounds = 3;
  for (const int n : {0, 1, 5, 12, 13, 40}) {
    std::vector<std::int32_t> ids;
    for (int i = 0; i < n; ++i) ids.push_back(3 * i + 1);
    std::map<std::int32_t, int> rounds;  // id -> rounds it has been through
    std::vector<std::int32_t> visited;
    for_each_ahead<kRounds>(
        ids.data(), ids.size(),
        [&](std::int32_t id) {
          EXPECT_EQ(rounds[id], kRounds) << "id " << id;
          visited.push_back(id);
        },
        [&](int round, std::int32_t id) {
          EXPECT_EQ(round, rounds[id]) << "id " << id;
          ++rounds[id];
        });
    EXPECT_EQ(visited, ids) << n << " ids";
    EXPECT_EQ(rounds.size(), ids.size()) << "the hook saw an id not listed";
  }
}

// The lookahead sweep is sweep() plus hints. Two wheels filed alike, one
// swept plainly and one with lookahead, over many laps of a small ring and
// with ids on both sides of word boundaries: every cycle visits the same
// ids in the same ascending order, refiles the same dues (some visits
// drop their id) and leaves size() alike. The hook sees every id of the
// bucket being drained through each round before its visit, and no other.
TEST(TimingWheel, SweepAheadVisitsWhatSweepVisits) {
  constexpr int kRounds = 2;
  TimingWheel plain;
  TimingWheel ahead;
  plain.resize(300, 5);  // span 8
  ahead.resize(300, 5);
  ASSERT_EQ(ahead.span(), 8);
  std::vector<std::int32_t> ids;
  for (std::int32_t id = 0; id < 300; id += 3) ids.push_back(id);
  for (const std::int32_t id : {1, 62, 64, 65, 127, 128, 191, 192, 299})
    ids.push_back(id);
  for (const std::int32_t id : ids) {
    plain.add(id, id % 2 == 0 ? 0 : id % 7);  // bucket 0 outgrows the lead
    ahead.add(id, id % 2 == 0 ? 0 : id % 7);
  }
  // A visit refiles its id 1 to 7 cycles ahead, or drops a tenth of them.
  const auto next_due = [](std::int32_t id, Cycle now) {
    if ((id + now) % 10 == 0) return TimingWheel::kIdle;
    return now + 1 + (id * 5 + now) % 7;
  };
  std::pmr::vector<std::int32_t> due;
  due.reserve(300);
  for (Cycle now = 0; now < 48; ++now) {
    std::vector<std::int32_t> want;
    plain.sweep(now, [&](std::int32_t id) {
      want.push_back(id);
      return next_due(id, now);
    });
    std::vector<std::int32_t> got;
    std::map<std::int32_t, int> rounds;  // id -> rounds it has been through
    ahead.sweep_ahead<kRounds>(
        now, due,
        [&](std::int32_t id) {
          EXPECT_EQ(rounds[id], kRounds) << "cycle " << now << " id " << id;
          got.push_back(id);
          return next_due(id, now);
        },
        [&](int round, std::int32_t id) {
          EXPECT_TRUE(std::binary_search(want.begin(), want.end(), id))
              << "cycle " << now << ": hook saw id " << id
              << " from another bucket";
          EXPECT_EQ(round, rounds[id]);
          ++rounds[id];
        });
    ASSERT_EQ(got, want) << "cycle " << now;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "cycle " << now;
    EXPECT_EQ(rounds.size(), want.size()) << "cycle " << now;
    EXPECT_EQ(ahead.size(), plain.size()) << "cycle " << now;
  }
  EXPECT_GT(plain.size(), 0u) << "the ring still holds ids after 6 laps";
}

}  // namespace
}  // namespace flexnet
