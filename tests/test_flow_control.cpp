// Cross-scheme differential battery for the flow-control axis.
//
// The flit-level schemes (wormhole, vct) share every data structure with
// the original packet-level engine; their correctness gate is built on
// three pillars:
//
//  1. Differential oracle — with packet_size=1 a "flit" IS a packet:
//     head-flit routing, per-flit crediting, and wormhole's incremental
//     ledger claims all collapse onto the packet-mode events, so every
//     scheme must reproduce the packet-mode SimResult bit for bit,
//     per (series, load, seed), under either buffer-management scheme.
//  2. Property battery — randomized small grids under every scheme x
//     ledger combo uphold the structural invariants: ledgers never go
//     negative, buffer occupancy never exceeds capacity, every injected
//     flit is delivered (full drain), and body flits never interleave
//     within a VC (the always-on check in InputBuffer::add_phit aborts
//     the process if they do — simply running these grids exercises it).
//  3. Shard determinism — the shipped fig6_flow_control grid merged from
//     {2,3,7} shards is bit-identical to the serial run for every
//     scheme x ledger series, extending the engine's core guarantee to
//     the new axis.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json_report.hpp"
#include "runner/shard.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/suite.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace flexnet {
namespace {

SimConfig fast_config() {
  SimConfig cfg;
  cfg.warmup = 300;
  cfg.measure = 600;
  return cfg;
}

struct SchemeCombo {
  const char* fc;
  const char* bm;
};

const std::vector<SchemeCombo>& all_combos() {
  static const std::vector<SchemeCombo> combos = {
      {"packet", "credit"},   {"packet", "on_off"}, {"wormhole", "credit"},
      {"wormhole", "on_off"}, {"vct", "credit"},    {"vct", "on_off"},
  };
  return combos;
}

// ---------------------------------------------------------------------------
// Registry surface.

TEST(FlowControlRegistry, SchemesAndLedgersAreRegistered) {
  EXPECT_NO_THROW(flow_control_registry().at("packet"));
  EXPECT_NO_THROW(flow_control_registry().at("wormhole"));
  EXPECT_NO_THROW(flow_control_registry().at("vct"));
  EXPECT_NO_THROW(buffer_mgmt_registry().at("credit"));
  EXPECT_NO_THROW(buffer_mgmt_registry().at("on_off"));
  EXPECT_THROW(flow_control_registry().at("bufferless"),
               std::invalid_argument);
  EXPECT_THROW(buffer_mgmt_registry().at("ack_nack"), std::invalid_argument);
}

TEST(FlowControlRegistry, ValidateRejectsEmptyPackets) {
  SimConfig cfg;
  cfg.flow_control = "wormhole";
  cfg.packet_size = 0;
  EXPECT_THROW(validate_config(cfg), std::invalid_argument);
  cfg.packet_size = 4;
  EXPECT_NO_THROW(validate_config(cfg));
  cfg.flow_control = "vct";
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(FlowControlRegistry, NetworkResolvesConfiguredSchemes) {
  SimConfig cfg = fast_config();
  cfg.flow_control = "vct";
  cfg.buffer_mgmt = "on_off";
  Network net(cfg);
  EXPECT_EQ(net.flow_control(), FlowControl::kVct);
  EXPECT_EQ(net.buffer_mgmt(), BufferMgmt::kOnOff);
  SimConfig dflt = fast_config();
  Network net2(dflt);
  EXPECT_EQ(net2.flow_control(), FlowControl::kPacket);
  EXPECT_EQ(net2.buffer_mgmt(), BufferMgmt::kCredit);
}

// ---------------------------------------------------------------------------
// 1. Differential oracle: packet_size=1 collapses every flit scheme
// onto packet mode. Grid: {uniform/min, bursty/min, uniform/val} x loads x
// seeds, FlexVC and baseline — enough series to cover routing revalidation,
// bursty injection, and both VC policies.

struct OracleSeries {
  const char* tag;
  const char* traffic;
  const char* routing;
  const char* policy;
  const char* vcs;
};

const std::vector<OracleSeries>& oracle_series() {
  static const std::vector<OracleSeries> series = {
      {"un-min-flexvc", "uniform", "min", "flexvc", "4/2"},
      {"un-min-baseline", "uniform", "min", "baseline", "2/1"},
      {"bursty-min-flexvc", "bursty", "min", "flexvc", "4/2"},
      {"un-val-flexvc", "uniform", "val", "flexvc", "4/2"},
  };
  return series;
}

SimResult run_oracle_point(const OracleSeries& s, const char* fc,
                           const char* bm, double load,
                           std::uint64_t seed) {
  SimConfig cfg = fast_config();
  cfg.traffic = s.traffic;
  cfg.routing = s.routing;
  cfg.policy = s.policy;
  cfg.vcs = s.vcs;
  cfg.flow_control = fc;
  cfg.buffer_mgmt = bm;
  cfg.packet_size = 1;
  cfg.load = load;
  cfg.seed = seed;
  return Simulator(cfg).run();
}

TEST(FlowControlOracle, SinglePhitPacketsMatchPacketModeBitForBit) {
  for (const OracleSeries& s : oracle_series()) {
    for (const double load : {0.4, 0.9}) {
      for (const std::uint64_t seed : {1ull, 2ull}) {
        for (const char* bm : {"credit", "on_off"}) {
          const SimResult ref = run_oracle_point(s, "packet", bm, load, seed);
          for (const char* fc : {"wormhole", "vct"}) {
            const SimResult got = run_oracle_point(s, fc, bm, load, seed);
            EXPECT_TRUE(result_bits_equal(ref, got))
                << s.tag << " " << fc << "/" << bm << " load=" << load
                << " seed=" << seed
                << ": accepted " << got.accepted << " vs " << ref.accepted
                << ", latency " << got.avg_latency << " vs "
                << ref.avg_latency << ", consumed " << got.consumed_packets
                << " vs " << ref.consumed_packets;
          }
        }
      }
    }
  }
}

TEST(FlowControlOracle, ReactiveTrafficAlsoCollapsesAtOnePhit) {
  // Request-reply dependencies route through the reply VC segment; the
  // S=1 equivalence must hold there too.
  const OracleSeries s{"un-min-reactive", "uniform", "min", "flexvc",
                       "4/2+2/1"};
  for (const char* bm : {"credit", "on_off"}) {
    SimResult ref{};
    for (const char* fc : {"packet", "wormhole", "vct"}) {
      SimConfig cfg = fast_config();
      cfg.traffic = s.traffic;
      cfg.routing = s.routing;
      cfg.policy = s.policy;
      cfg.vcs = s.vcs;
      cfg.reactive = true;
      cfg.flow_control = fc;
      cfg.buffer_mgmt = bm;
      cfg.packet_size = 1;
      cfg.load = 0.6;
      cfg.seed = 3;
      const SimResult got = Simulator(cfg).run();
      if (std::string(fc) == "packet") {
        ref = got;
        continue;
      }
      EXPECT_TRUE(result_bits_equal(ref, got))
          << fc << "/" << bm << " reactive: accepted " << got.accepted
          << " vs " << ref.accepted;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Property battery.

/// Asserts the structural invariants on a network mid-flight or drained.
void expect_invariants(const Network& net, const std::string& context) {
  const Topology& topo = net.topology();
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    const int net_ports = topo.num_network_ports(r);
    for (PortIndex p = 0; p < net_ports; ++p) {
      const int occ = net.port_occupancy(r, p, /*min_only=*/false);
      const int min_occ = net.port_occupancy(r, p, /*min_only=*/true);
      EXPECT_GE(occ, 0) << context << ": ledger negative at router " << r
                        << " port " << p;
      EXPECT_GE(min_occ, 0) << context << ": minCred ledger negative at "
                            << "router " << r << " port " << p;
      EXPECT_LE(min_occ, occ) << context;
    }
    const int in_ports = net.num_input_ports(r);
    for (PortIndex p = 0; p < in_ports; ++p) {
      const InputBuffer& buf = net.input_buffer(r, p);
      EXPECT_LE(buf.occupancy(), buf.total_capacity())
          << context << ": input buffer over capacity at router " << r
          << " port " << p;
      EXPECT_LE(buf.shared_used(), buf.shared_capacity()) << context;
      int per_vc = 0;
      for (VcIndex vc = 0; vc < buf.num_vcs(); ++vc) {
        EXPECT_GE(buf.occupancy(vc), 0) << context;
        per_vc += buf.occupancy(vc);
      }
      EXPECT_EQ(per_vc, buf.occupancy()) << context;
    }
  }
}

void expect_fully_drained(const Network& net, const std::string& context) {
  const Topology& topo = net.topology();
  EXPECT_EQ(net.packets_in_network(), 0) << context;
  for (RouterId r = 0; r < topo.num_routers(); ++r) {
    for (PortIndex p = 0; p < topo.num_network_ports(r); ++p) {
      EXPECT_EQ(net.port_occupancy(r, p, false), 0)
          << context << ": undrained ledger at router " << r << " port "
          << p << " — some flit's credit never returned";
      EXPECT_EQ(net.port_occupancy(r, p, true), 0) << context;
    }
    for (PortIndex p = 0; p < net.num_input_ports(r); ++p) {
      EXPECT_EQ(net.input_buffer(r, p).occupancy(), 0)
          << context << ": stranded phits at router " << r << " port " << p;
    }
  }
}

TEST(FlowControlProperties, BurstDrainsCompletelyUnderEveryScheme) {
  // A quiet network (load 0) with one hand-injected packet per node: every
  // flit must reach its destination, every credit must return, every
  // buffer must empty — conservation, under all six scheme combos and
  // both a 1-phit and a multi-phit segmentation.
  for (const SchemeCombo& combo : all_combos()) {
    for (const int phits : {1, 4}) {
      SimConfig cfg;
      cfg.load = 0.0;
      cfg.policy = "flexvc";
      cfg.vcs = "4/2";
      cfg.routing = "min";
      cfg.flow_control = combo.fc;
      cfg.buffer_mgmt = combo.bm;
      cfg.packet_size = phits;
      const std::string context = std::string(combo.fc) + "/" + combo.bm +
                                  " phits=" + std::to_string(phits);
      Network net(cfg);
      const NodeId nodes = net.topology().num_nodes();
      int injected = 0;
      for (NodeId n = 0; n < nodes; ++n) {
        Packet pkt;
        pkt.src = n;
        pkt.dst = (n + nodes / 2 + 1) % nodes;
        pkt.size = cfg.packet_size;
        pkt.cls = MsgClass::kRequest;
        pkt.created = 0;
        if (net.try_inject(n, pkt, 0)) ++injected;
      }
      ASSERT_GT(injected, static_cast<int>(nodes) / 2) << context;

      Cycle now = 0;
      for (; now < 20000 && net.packets_in_network() > 0; ++now) {
        net.step(now);
        if (now % 64 == 0) expect_invariants(net, context);
      }
      ASSERT_EQ(net.packets_in_network(), 0)
          << context << ": burst never fully consumed";
      const Cycle drain_until = now + 3 * cfg.global_latency;
      for (; now < drain_until; ++now) net.step(now);
      expect_fully_drained(net, context);
    }
  }
}

TEST(FlowControlProperties, RandomizedGridsKeepInvariantsUnderLoad) {
  // Sustained randomized traffic (three seeds, near-saturation load) under
  // each flit scheme x ledger: the run must not deadlock, must deliver
  // packets, and the post-run network must satisfy every structural
  // invariant. Body-flit interleaving would abort inside add_phit.
  for (const SchemeCombo& combo : all_combos()) {
    if (std::string(combo.fc) == "packet") continue;  // flit schemes only
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
      SimConfig cfg = fast_config();
      cfg.policy = "flexvc";
      cfg.vcs = "4/2";
      cfg.flow_control = combo.fc;
      cfg.buffer_mgmt = combo.bm;
      cfg.load = 0.9;
      cfg.seed = seed;
      const std::string context = std::string(combo.fc) + "/" + combo.bm +
                                  " seed=" + std::to_string(seed);
      Simulator sim(cfg);
      const SimResult result = sim.run();
      EXPECT_FALSE(result.deadlock) << context;
      EXPECT_GT(result.consumed_packets, 0) << context;
      EXPECT_GT(result.accepted, 0.0) << context;
      ASSERT_NE(sim.network(), nullptr);
      expect_invariants(*sim.network(), context);
    }
  }
}

TEST(FlowControlProperties, OnOffLedgerHonorsHysteresisBounds) {
  // Direct unit check of the on/off wrapper: the off bit trips exactly
  // below the off threshold and releases exactly at the on threshold.
  CreditLedger ledger(/*num_vcs=*/2, /*private_per_vc=*/4,
                      /*shared_capacity=*/0);
  ledger.enable_on_off(/*off_threshold=*/2, /*on_threshold=*/4);
  EXPECT_TRUE(ledger.on_off_enabled());
  EXPECT_FALSE(ledger.is_off());
  // Fill VC0 fully and VC1 partially: port free = 8 - 7 = 1 < 2 -> off.
  ledger.on_send(0, 4, RouteKind::kMinimal);
  EXPECT_FALSE(ledger.is_off());  // free = 4, above off threshold
  ledger.on_send(1, 3, RouteKind::kMinimal);
  EXPECT_TRUE(ledger.is_off());
  EXPECT_FALSE(ledger.can_send(1, 1)) << "off bit must gate can_send";
  // Hysteresis: freeing back to 2 or 3 is not enough; 4 re-opens.
  ledger.on_credit(1, 2, RouteKind::kMinimal);
  EXPECT_TRUE(ledger.is_off()) << "free=3 < on_threshold=4 must stay off";
  ledger.on_credit(1, 1, RouteKind::kMinimal);
  EXPECT_FALSE(ledger.is_off()) << "free=4 reaches on_threshold";
  EXPECT_TRUE(ledger.can_send(1, 1));
}

// ---------------------------------------------------------------------------
// 3. Shard determinism over the shipped fig6_flow_control grid.

TEST(FlowControlShards, MergedShardsMatchSerialForEveryScheme) {
  const SuiteSpec spec = SuiteSpec::load_shipped("fig6_flow_control.json");
  SimConfig defaults;
  Options fast;
  fast.set("warmup", "200");
  fast.set("measure", "400");
  const std::vector<ExperimentSeries> grid =
      spec.materialize(defaults, &fast);
  const std::vector<double>& loads = spec.loads;
  const int seeds = spec.seeds_or(1);
  const std::size_t points = grid.size() * loads.size();
  const std::uint64_t fingerprint = grid_fingerprint(grid, loads, seeds);

  const std::vector<SweepResult> serial =
      SweepRunner(1).run(grid, loads, seeds);
  // Every scheme x ledger pair is a series of the grid.
  std::vector<std::string> labels;
  for (const SweepResult& s : serial) labels.push_back(s.label);
  EXPECT_EQ(labels, (std::vector<std::string>{
                        "packet/credit", "packet/on_off", "wormhole/credit",
                        "wormhole/on_off", "vct/credit", "vct/on_off"}));

  for (const int count : {2, 3, 7}) {
    std::vector<ShardJournal> shards;
    std::vector<std::string> paths;
    for (int i = 0; i < count; ++i) {
      const std::string path =
          ::testing::TempDir() + "fc_battery_" + std::to_string(count) +
          "_" + std::to_string(i) + ".journal";
      std::remove(path.c_str());
      SweepRunner runner(/*workers=*/2);
      runner.set_checkpoint(path);
      runner.set_shard(ShardSpec{i, count});
      runner.run(grid, loads, seeds);
      shards.push_back({path, read_journal(path)});
      EXPECT_EQ(shards.back().contents.fingerprint, fingerprint) << path;
      paths.push_back(path);
    }
    const auto records = merge_journals(shards);
    ASSERT_EQ(records.size(), points * static_cast<std::size_t>(seeds))
        << count << " shards";
    std::vector<std::vector<SimResult>> per_seed(
        points, std::vector<SimResult>(static_cast<std::size_t>(seeds)));
    for (const auto& rec : records)
      per_seed[rec.point][static_cast<std::size_t>(rec.seed)] = rec.result;
    const std::vector<SweepResult> merged =
        SweepRunner::reduce_slots(grid, loads, per_seed);

    ASSERT_EQ(merged.size(), serial.size()) << count << " shards";
    for (std::size_t s = 0; s < serial.size(); ++s) {
      EXPECT_EQ(serial[s].label, merged[s].label);
      ASSERT_EQ(serial[s].rows.size(), merged[s].rows.size());
      for (std::size_t r = 0; r < serial[s].rows.size(); ++r) {
        EXPECT_TRUE(result_bits_equal(serial[s].rows[r].result,
                                      merged[s].rows[r].result))
            << count << " shards, series '" << serial[s].label << "' row "
            << r << ": the flow-control axis broke shard determinism";
      }
    }
    for (const std::string& path : paths) std::remove(path.c_str());
  }
}

// The flit schemes must actually differ from packet mode at a real
// segmentation — otherwise the axis is wired to a no-op and the oracle
// above proves nothing.
TEST(FlowControlShards, MultiPhitSchemesAreNotSilentNoOps) {
  SimConfig packet = fast_config();
  packet.policy = "flexvc";
  packet.vcs = "4/2";
  packet.load = 1.0;
  const SimResult ref = Simulator(packet).run();
  for (const char* fc : {"wormhole", "vct"}) {
    SimConfig cfg = packet;
    cfg.flow_control = fc;
    const SimResult got = Simulator(cfg).run();
    EXPECT_FALSE(result_bits_equal(ref, got))
        << fc << " at packet_size=8 produced the packet-mode result "
        << "bit for bit — the scheme is not actually segmenting";
  }
}

}  // namespace
}  // namespace flexnet
