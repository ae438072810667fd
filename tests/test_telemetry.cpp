// The observability layer: log2 latency histograms (binning, quantile
// estimates, mergeability), the deterministic counter registry (hot-path
// invariants, union-shape merge, byte-identical aggregates across worker
// and shard splits), the result-purity guarantee (telemetry on/off cannot
// change a SimResult bit), and the Chrome-trace writer (valid JSON, spans
// nest per (pid, tid), per-packet spans). The heartbeat sidecar's tests
// live in tests/test_heartbeat.cpp with the orchestrator's liveness
// monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runner/checkpoint.hpp"
#include "runner/json_parser.hpp"
#include "runner/shard.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace flexnet {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}


// ---------------------------------------------------------------------------
// Log2Histogram.

TEST(Log2Histogram, BinOfIsBitWidth) {
  EXPECT_EQ(Log2Histogram::bin_of(0), 0);
  EXPECT_EQ(Log2Histogram::bin_of(-5), 0);
  EXPECT_EQ(Log2Histogram::bin_of(1), 1);
  EXPECT_EQ(Log2Histogram::bin_of(2), 2);
  EXPECT_EQ(Log2Histogram::bin_of(3), 2);
  EXPECT_EQ(Log2Histogram::bin_of(4), 3);
  EXPECT_EQ(Log2Histogram::bin_of(1023), 10);
  EXPECT_EQ(Log2Histogram::bin_of(1024), 11);
  EXPECT_EQ(Log2Histogram::bin_of(std::int64_t{1} << 62), 63);
}

TEST(Log2Histogram, EmptyAndZeroOnlyQuantiles) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (int i = 0; i < 4; ++i) h.add(0);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.max_value(), 0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0) << "bin 0 is exact";
}

TEST(Log2Histogram, SingleSampleQuantileIsTheSample) {
  // One sample of 5 occupies bin [4, 8), clamped above by max+1 = 6; the
  // rank-midpoint of that range is exactly the sample.
  Log2Histogram h;
  h.add(5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  EXPECT_EQ(h.max_value(), 5);
}

TEST(Log2Histogram, MaxIsExactNotBinned) {
  Log2Histogram h;
  for (const std::int64_t v : {3, 100, 9}) h.add(v);
  EXPECT_EQ(h.max_value(), 100);
  // The quantile estimate never exceeds the observed maximum's successor.
  EXPECT_LE(h.quantile(1.0), 101.0);
}

TEST(Log2Histogram, MergeEqualsBulkInsertion) {
  Log2Histogram bulk, left, right;
  for (std::int64_t v = 1; v <= 40; ++v) {
    bulk.add(v * v);
    (v % 2 == 0 ? left : right).add(v * v);
  }
  // Either merge direction reproduces the single-histogram state exactly.
  Log2Histogram merged = left;
  merged.merge(right);
  Log2Histogram reversed = right;
  reversed.merge(left);
  for (const Log2Histogram* h : {&merged, &reversed}) {
    EXPECT_EQ(h->count(), bulk.count());
    EXPECT_EQ(h->max_value(), bulk.max_value());
    for (int b = 0; b < Log2Histogram::kBins; ++b)
      EXPECT_EQ(h->bin(b), bulk.bin(b)) << "bin " << b;
    EXPECT_DOUBLE_EQ(h->quantile(0.5), bulk.quantile(0.5));
    EXPECT_DOUBLE_EQ(h->quantile(0.99), bulk.quantile(0.99));
  }
}

TEST(Log2Histogram, QuantilesAreMonotone) {
  Log2Histogram h;
  for (std::int64_t v = 1; v <= 500; ++v) h.add(v);
  double prev = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double est = h.quantile(q);
    EXPECT_GE(est, prev) << "q=" << q;
    prev = est;
  }
}

// ---------------------------------------------------------------------------
// TelemetryCounters unit behaviour (no simulations).

TEST(TelemetryCounters, HooksLandOnTheRightIds) {
  TelemetryCounters t;
  t.configure(2, {2, 1});
  EXPECT_TRUE(t.configured());
  EXPECT_EQ(t.routers(), 2);
  EXPECT_EQ(t.links(), 2);
  EXPECT_EQ(t.vcs_of_link(0), 2);
  EXPECT_EQ(t.vcs_of_link(1), 1);

  t.on_requests(0, 3);
  t.on_conflicts(0, 2);
  t.on_grant(0);
  t.on_injection(1);
  t.on_send(/*link=*/0, /*vc=*/1, /*phits=*/4, /*vc_occupied=*/6,
            /*port_occupied=*/10);
  t.on_delivery(1, 4);
  t.on_credit(1, 4);
  t.on_step(5, 2, 1, 7);

  EXPECT_EQ(t.total_requests(), 3);
  EXPECT_EQ(t.total_conflicts(), 2);
  EXPECT_EQ(t.total_grants(), 1);
  EXPECT_EQ(t.router_grants(0), 1);
  EXPECT_EQ(t.steps(), 1);
  EXPECT_EQ(t.active_links_sum(), 5);
  EXPECT_EQ(t.live_packets_sum(), 7);

  const std::string snapshot = t.render();
  EXPECT_NE(snapshot.find("telemetry v1 routers=2 links=2"),
            std::string::npos);
  EXPECT_NE(snapshot.find("router.0.requests 3"), std::string::npos);
  EXPECT_NE(snapshot.find("router.0.re_requests 2"), std::string::npos)
      << "re_requests = requests - grants";
  EXPECT_NE(snapshot.find("router.1.injections 1"), std::string::npos);
  EXPECT_NE(snapshot.find("link.0.vc.1.sends 1"), std::string::npos);
  EXPECT_NE(snapshot.find("link.0.vc.1.occupancy_sum 6"), std::string::npos);
  EXPECT_NE(snapshot.find("link.1.delivered_phits 4"), std::string::npos);
  EXPECT_NE(snapshot.find("link.1.credit_phits 4"), std::string::npos);
}

TEST(TelemetryCounters, MergeIntoUnconfiguredAdoptsValuesNotEnabled) {
  TelemetryCounters src;
  src.configure(1, {1});
  src.on_grant(0);
  src.set_enabled(true);

  TelemetryCounters agg;  // unconfigured aggregate, counting disabled
  agg.merge(src);
  EXPECT_EQ(agg.total_grants(), 1);
  EXPECT_EQ(agg.render(), src.render());
  EXPECT_FALSE(agg.enabled())
      << "an aggregate adopts values, never the enabled flag";
}

TEST(TelemetryCounters, UnionShapeMergeAddsPerIdAndCommutes) {
  // Differently-shaped sides (a sweep mixing VC arrangements): the merge
  // widens to the union shape and adds per (router, link, vc) id.
  TelemetryCounters a;
  a.configure(1, {1});
  a.on_grant(0);
  a.on_send(0, 0, 2, 5, 5);

  TelemetryCounters b;
  b.configure(2, {2, 1});
  b.on_grant(0);
  b.on_grant(1);
  b.on_send(0, 1, 3, 4, 6);

  TelemetryCounters ab = a;
  ab.merge(b);
  EXPECT_EQ(ab.routers(), 2);
  EXPECT_EQ(ab.links(), 2);
  EXPECT_EQ(ab.vcs_of_link(0), 2);
  EXPECT_EQ(ab.vcs_of_link(1), 1);
  EXPECT_EQ(ab.router_grants(0), 2);
  EXPECT_EQ(ab.router_grants(1), 1);
  EXPECT_EQ(ab.total_grants(), 3);

  TelemetryCounters ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.render(), ba.render()) << "merge must commute";

  const std::string snapshot = ab.render();
  EXPECT_NE(snapshot.find("link.0.vc.0.sends 1"), std::string::npos);
  EXPECT_NE(snapshot.find("link.0.vc.1.sends 1"), std::string::npos);
}

TEST(TelemetryCounters, MergeIsAssociativeOverThreeShapes) {
  const auto seeded = [](int routers, std::vector<int> vcs, int grants) {
    TelemetryCounters t;
    t.configure(routers, vcs);
    for (int g = 0; g < grants; ++g) t.on_grant(g % routers);
    t.on_step(1, 1, 1, 1);
    return t;
  };
  const TelemetryCounters x = seeded(1, {1}, 1);
  const TelemetryCounters y = seeded(2, {2, 1}, 3);
  const TelemetryCounters z = seeded(3, {1, 1, 2}, 5);

  TelemetryCounters xy_z = x;
  xy_z.merge(y);
  xy_z.merge(z);
  TelemetryCounters zy_x = z;
  zy_x.merge(y);
  zy_x.merge(x);
  EXPECT_EQ(xy_z.render(), zy_x.render());
  EXPECT_EQ(xy_z.total_grants(), 9);
  EXPECT_EQ(xy_z.steps(), 3);
}

// ---------------------------------------------------------------------------
// Network-level counter semantics and result purity.

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.warmup = 200;
  cfg.measure = 400;
  cfg.load = 0.4;
  return cfg;
}

TEST(NetworkTelemetry, AllocatorCountersSatisfyTheStageInvariant) {
  // requests are counted at output arbitration, so every request is either
  // a grant or a conflict: requests == grants + conflicts, and the grant
  // counter agrees with the engine's own total_grants.
  SimConfig cfg = tiny_config();
  Network net(cfg);
  net.set_telemetry_enabled(true);
  for (Cycle now = 0; now < 600; ++now) net.step(now);
  const TelemetryCounters& t = net.telemetry();
  EXPECT_TRUE(t.enabled());
  EXPECT_EQ(t.total_requests(), t.total_grants() + t.total_conflicts());
  EXPECT_EQ(t.total_grants(), net.total_grants());
  EXPECT_GT(t.total_grants(), 0);
  EXPECT_EQ(t.steps(), 600);
  EXPECT_GT(t.live_packets_sum(), 0);
}

TEST(NetworkTelemetry, DisabledCountersStayZero) {
  SimConfig cfg = tiny_config();
  Network net(cfg);
  net.set_telemetry_enabled(false);
  for (Cycle now = 0; now < 300; ++now) net.step(now);
  EXPECT_EQ(net.telemetry().total_grants(), 0);
  EXPECT_EQ(net.telemetry().steps(), 0);
  EXPECT_GT(net.total_grants(), 0) << "the simulation itself ran";
}

TEST(NetworkTelemetry, EnvironmentDoesNotEnableCounting) {
  // Counting is on only when a caller asks for it: no environment
  // variable reaches Network::build.
  ASSERT_EQ(setenv("FLEXNET_TELEMETRY", "1", 1), 0);
  Network net(tiny_config());
  unsetenv("FLEXNET_TELEMETRY");
  for (Cycle now = 0; now < 300; ++now) net.step(now);
  EXPECT_FALSE(net.telemetry().enabled());
  EXPECT_EQ(net.telemetry().steps(), 0);
}

TEST(NetworkTelemetry, EnablingTelemetryCannotPerturbResults) {
  // Counters are pure observations: a run with counting enabled must
  // produce a bit-identical SimResult to the same run with it disabled.
  SimConfig cfg = tiny_config();
  const SimResult off = Simulator(cfg).set_telemetry(false).run();
  const SimResult on = Simulator(cfg).set_telemetry(true).run();
  EXPECT_TRUE(result_bits_equal(off, on));
  EXPECT_GT(off.consumed_packets, 0);
  EXPECT_GT(off.latency_p50, 0.0);
  EXPECT_GE(off.latency_p99, off.latency_p50);
  EXPECT_GE(off.latency_max, off.latency_p99 - 1.0);
}

// ---------------------------------------------------------------------------
// Sweep-level determinism: the aggregate is byte-identical across worker
// counts and across a serial run vs a 3-shard split — on a grid that mixes
// VC arrangements, so the union-shape merge is on the hot path.

std::vector<ExperimentSeries> mixed_grid() {
  SimConfig base = tiny_config();
  std::vector<ExperimentSeries> series;
  series.push_back({"baseline", base});
  SimConfig flex = base;
  flex.policy = "flexvc";
  flex.vcs = "4/2";
  series.push_back({"flexvc", flex});
  return series;
}

const std::vector<double> kLoads = {0.2, 0.4};
constexpr int kSeeds = 2;

TEST(TelemetryDeterminism, AggregateByteIdenticalAcrossWorkerCounts) {
  const auto grid = mixed_grid();
  TelemetryCounters serial, parallel;
  SweepRunner(1).set_telemetry(&serial).run(grid, kLoads, kSeeds);
  SweepRunner(4).set_telemetry(&parallel).run(grid, kLoads, kSeeds);
  EXPECT_EQ(serial.render(), parallel.render());
  EXPECT_GT(serial.total_grants(), 0);
  EXPECT_EQ(serial.vcs_of_link(0), 4)
      << "the aggregate must carry the union shape (flexvc 4/2)";
}

TEST(TelemetryDeterminism, ShardAggregatesMergeToTheSerialAggregate) {
  const auto grid = mixed_grid();
  TelemetryCounters serial;
  SweepRunner(1).set_telemetry(&serial).run(grid, kLoads, kSeeds);

  constexpr int kShards = 3;
  std::vector<TelemetryCounters> per_shard(kShards);
  for (int i = 0; i < kShards; ++i) {
    SweepRunner runner(2);
    runner.set_shard(ShardSpec{i, kShards});
    runner.set_telemetry(&per_shard[static_cast<std::size_t>(i)]);
    runner.run(grid, kLoads, kSeeds);
  }
  // Merge the shard aggregates in two different orders: both must equal
  // the serial aggregate byte for byte.
  TelemetryCounters forward = per_shard[0];
  forward.merge(per_shard[1]);
  forward.merge(per_shard[2]);
  TelemetryCounters backward = per_shard[2];
  backward.merge(per_shard[1]);
  backward.merge(per_shard[0]);
  EXPECT_EQ(forward.render(), serial.render());
  EXPECT_EQ(backward.render(), serial.render());
}

// ---------------------------------------------------------------------------
// Chrome-trace writer.

struct TraceEvent {
  std::string name, cat, ph;
  int pid = 0, tid = 0;
  double ts = 0.0, dur = 0.0;
};

std::vector<TraceEvent> parse_trace(const std::string& path,
                                    JsonValue* doc_out = nullptr) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(read_file(path), &doc, &error))
      << path << ": " << error;
  std::vector<TraceEvent> events;
  const JsonValue* list = doc.find("traceEvents");
  EXPECT_NE(list, nullptr);
  if (list != nullptr) {
    for (const JsonValue& e : list->array) {
      TraceEvent ev;
      if (const JsonValue* v = e.find("name")) ev.name = v->string;
      if (const JsonValue* v = e.find("cat")) ev.cat = v->string;
      if (const JsonValue* v = e.find("ph")) ev.ph = v->string;
      if (const JsonValue* v = e.find("pid"))
        ev.pid = static_cast<int>(v->number);
      if (const JsonValue* v = e.find("tid"))
        ev.tid = static_cast<int>(v->number);
      if (const JsonValue* v = e.find("ts")) ev.ts = v->number;
      if (const JsonValue* v = e.find("dur")) ev.dur = v->number;
      events.push_back(std::move(ev));
    }
  }
  if (doc_out != nullptr) *doc_out = std::move(doc);
  return events;
}

/// Asserts that every lane's X spans nest: sorted by start (outer-first on
/// ties), each span either starts after the enclosing one ends or ends
/// within it. `eps` absorbs the %.3f rendering granularity.
void expect_spans_nest(const std::vector<TraceEvent>& events) {
  constexpr double kEps = 0.002;
  std::map<std::pair<int, int>, std::vector<TraceEvent>> lanes;
  for (const TraceEvent& e : events)
    if (e.ph == "X") lanes[{e.pid, e.tid}].push_back(e);
  for (auto& lane : lanes) {
    std::vector<TraceEvent>& spans = lane.second;
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                return a.dur > b.dur;  // ties: outer span first
              });
    std::vector<double> open_ends;
    for (const TraceEvent& s : spans) {
      while (!open_ends.empty() && open_ends.back() <= s.ts + kEps)
        open_ends.pop_back();
      if (!open_ends.empty()) {
        EXPECT_LE(s.ts + s.dur, open_ends.back() + kEps)
            << "span \"" << s.name << "\" on pid " << s.pid << " tid "
            << s.tid << " overlaps its neighbour without nesting";
      }
      open_ends.push_back(s.ts + s.dur);
    }
  }
}

TEST(TraceWriter, EmitsValidJsonWithNestedSpans) {
  const std::string path = temp_path("tm_trace.json");
  {
    TraceWriter trace(path);
    ASSERT_TRUE(trace.ok());
    trace.process_name(0, "unit test");
    {
      TraceWriter::Span outer = trace.span("suite", "outer", 0);
      { TraceWriter::Span inner = trace.span("checkpoint", "inner", 0); }
    }
    trace.complete("packet", "pkt1", /*pid=*/2, /*tid=*/5, 100.0, 50.0,
                   "{\"src\":1,\"dst\":2}");
    trace.close();
  }
  JsonValue doc;
  const std::vector<TraceEvent> events = parse_trace(path, &doc);
  ASSERT_EQ(events.size(), 4u);
  expect_spans_nest(events);

  int x_events = 0, m_events = 0;
  for (const TraceEvent& e : events) {
    if (e.ph == "X") ++x_events;
    if (e.ph == "M") ++m_events;
  }
  EXPECT_EQ(x_events, 3);
  EXPECT_EQ(m_events, 1);
  // The packet event keeps its args object through the round trip.
  const JsonValue* list = doc.find("traceEvents");
  bool found_args = false;
  for (const JsonValue& e : list->array)
    if (const JsonValue* name = e.find("name"))
      if (name->string == "pkt1") {
        const JsonValue* args = e.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_DOUBLE_EQ(args->find("src")->number, 1.0);
        found_args = true;
      }
  EXPECT_TRUE(found_args);
  std::remove(path.c_str());
}

TEST(TraceWriter, EmptyPathIsInertAndUnopenableDegrades) {
  TraceWriter inert{std::string()};
  EXPECT_FALSE(inert.ok());
  { TraceWriter::Span s = inert.span("a", "b", 0); }  // all no-ops
  inert.complete("a", "b", 0, 0, 0.0, 1.0);
  inert.close();

  TraceWriter broken(temp_path("no-such-dir/trace.json"));
  EXPECT_FALSE(broken.ok());
  broken.complete("a", "b", 0, 0, 0.0, 1.0);
  broken.close();
}

TEST(TraceWriter, SweepRunWithPacketSpansProducesAValidNestedTrace) {
  const std::string path = temp_path("tm_trace_sweep.json");
  {
    TraceWriter trace(path);
    SimConfig cfg = tiny_config();
    Simulator sim(cfg);
    sim.set_trace(&trace, /*pid=*/7);
    {
      TraceWriter::Span job = trace.span("sweep", "job load=0.4", 1);
      const SimResult r = sim.run();
      EXPECT_GT(r.consumed_packets, 0);
    }
    trace.close();
  }
  const std::vector<TraceEvent> events = parse_trace(path);
  expect_spans_nest(events);
  int packet_spans = 0;
  double longest = 0.0;
  for (const TraceEvent& e : events)
    if (e.cat == "packet") {
      EXPECT_EQ(e.pid, 7);
      // Same-router delivery can inject and eject within one cycle, so
      // zero-length spans are legitimate — but not for every packet.
      EXPECT_GE(e.dur, 0.0);
      longest = std::max(longest, e.dur);
      ++packet_spans;
    }
  EXPECT_GT(packet_spans, 0);
  EXPECT_GE(longest, 1.0) << "some packet must traverse the network";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flexnet
