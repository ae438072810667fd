// Core-equivalence gate for the active-set simulation engine.
//
// The per-cycle engine (Network::step and everything under it) may be
// refactored for speed only if the results stay bit-identical. This suite
// enforces that with golden-report fixtures: the canonical JSON report of
// the shipped smoke_tiny and fig9_vc_selection suites was recorded against
// the pre-refactor core (commit df27f50) and every run since must
// reproduce it byte for byte, at 1 and at 4 workers.
//
// Regenerating the fixtures (only when a change *intends* to alter
// results, e.g. a new config default) is explicit:
//
//   FLEXNET_UPDATE_GOLDEN=1 ./build/test_core_equivalence
//
// The credit-return regression tests pin the deliver() credit-owner fix:
// every returned credit must land on the ledger of the link's *sending*
// router and port (the owner). The owner mapping is baked into the flat
// link index at build() time (ledgers are link-indexed) rather than
// re-derived by a per-cycle scan.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/json_report.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/suite.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace flexnet {
namespace {

#ifndef FLEXNET_GOLDEN_DIR
#define FLEXNET_GOLDEN_DIR "tests/golden"
#endif

std::string golden_path(const std::string& name) {
  return std::string(FLEXNET_GOLDEN_DIR) + "/" + name;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Renders the canonical report of one shipped suite: the experiment grid
/// is pinned here (explicit defaults, warmup/measure, seeds) so the bytes
/// depend on nothing but the suite file and the simulation core — no
/// wall-clock, no worker count.
std::string render_suite_report(const std::string& suite_file, int jobs,
                                int* seeds_out = nullptr) {
  const SuiteSpec spec = SuiteSpec::load_shipped(suite_file);
  Options pinned;
  pinned.set("warmup", "2000");
  pinned.set("measure", "4000");
  const std::vector<ExperimentSeries> grid =
      spec.materialize(SimConfig{}, &pinned);
  const int seeds = spec.seeds_or(1);
  if (seeds_out != nullptr) *seeds_out = seeds;

  SweepRunner runner(jobs);
  const std::vector<SweepResult> sweeps = runner.run(grid, spec.loads, seeds);

  JsonReport report;
  report.set_meta("suite", suite_file);
  report.set_meta("title", spec.title);
  report.set_meta("config", grid.front().config.summary());
  report.set_meta("seeds", static_cast<std::int64_t>(seeds));
  report.add_sweep(spec.title, sweeps, /*wall_seconds=*/0.0);
  return report.to_json();
}

void check_against_golden(const std::string& suite_file,
                          const std::string& golden_name) {
  const std::string path = golden_path(golden_name);
  if (std::getenv("FLEXNET_UPDATE_GOLDEN") != nullptr) {
    const std::string rendered = render_suite_report(suite_file, /*jobs=*/1);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::fprintf(stderr, "golden updated: %s (%zu bytes)\n", path.c_str(),
                 rendered.size());
    return;
  }

  std::string golden;
  ASSERT_TRUE(read_file(path, &golden))
      << "missing golden fixture " << path
      << " — record it with FLEXNET_UPDATE_GOLDEN=1";
  for (const int jobs : {1, 4}) {
    const std::string rendered = render_suite_report(suite_file, jobs);
    ASSERT_EQ(rendered, golden)
        << "canonical report of " << suite_file << " at " << jobs
        << " worker(s) differs from the pre-refactor golden " << path;
  }
}

TEST(CoreEquivalence, SmokeTinyGoldenReportByteIdentical) {
  check_against_golden("smoke_tiny.json", "smoke_tiny.golden.json");
}

TEST(CoreEquivalence, Fig9VcSelectionGoldenReportByteIdentical) {
  check_against_golden("fig9_vc_selection.json",
                       "fig9_vc_selection.golden.json");
}

TEST(CoreEquivalence, Fig6FlowControlGoldenReportByteIdentical) {
  check_against_golden("fig6_flow_control.json",
                       "fig6_flow_control.golden.json");
}

// The only golden with ON/OFF (bursty) injection: per-burst destinations
// and the two-state process pin the node phase's generation order.
TEST(CoreEquivalence, Fig6bBurstyGoldenReportByteIdentical) {
  check_against_golden("fig6b_bursty_min.json",
                       "fig6b_bursty_min.golden.json");
}

// --- Credit-owner regression (Network::deliver).
//
// A credit travels the reverse channel of the link its packet used, and
// must be booked on the ledger of the (router, port) that *sent* the
// packet. With load pinned to zero, exactly one hand-injected packet
// crosses the network; once it is consumed, every ledger of every router
// must read zero again — a credit landed on a wrong ledger leaves one
// ledger permanently positive (and the right one permanently negative).

SimConfig quiet_config() {
  SimConfig cfg;
  cfg.load = 0.0;  // nodes generate nothing; only hand-injected packets move
  cfg.policy = "baseline";
  cfg.vcs = "2/1";
  cfg.routing = "min";
  return cfg;
}

int total_ledger_occupancy(const Network& net) {
  int total = 0;
  for (RouterId r = 0; r < net.topology().num_routers(); ++r) {
    const int ports = net.topology().num_network_ports(r);
    for (PortIndex p = 0; p < ports; ++p)
      total += net.port_occupancy(r, p, /*min_only=*/false);
  }
  return total;
}

TEST(CreditReturn, CreditsLandOnTheOwningLedgerAcrossRouters) {
  const SimConfig cfg = quiet_config();
  Network net(cfg);
  const NodeId src = 0;
  const NodeId dst = net.topology().num_nodes() - 1;
  ASSERT_NE(net.topology().router_of_node(src),
            net.topology().router_of_node(dst));

  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.size = cfg.packet_size;
  pkt.cls = MsgClass::kRequest;
  pkt.created = 0;
  ASSERT_TRUE(net.try_inject(src, pkt, 0));
  ASSERT_EQ(net.packets_in_network(), 1);

  bool saw_inflight_credit = false;
  Cycle now = 0;
  for (; now < 5000 && net.packets_in_network() > 0; ++now) {
    net.step(now);
    saw_inflight_credit |= total_ledger_occupancy(net) > 0;
  }
  ASSERT_EQ(net.packets_in_network(), 0)
      << "hand-injected packet never consumed";
  EXPECT_TRUE(saw_inflight_credit)
      << "packet crossed the network without occupying any ledger";

  // Let all in-flight credits return (global links take 100 cycles).
  const Cycle drain_until = now + 3 * cfg.global_latency;
  for (; now < drain_until; ++now) net.step(now);

  for (RouterId r = 0; r < net.topology().num_routers(); ++r) {
    const int ports = net.topology().num_network_ports(r);
    for (PortIndex p = 0; p < ports; ++p) {
      EXPECT_EQ(net.port_occupancy(r, p, false), 0)
          << "ledger of router " << r << " port " << p
          << " did not drain: a credit landed on the wrong ledger";
      EXPECT_EQ(net.port_occupancy(r, p, true), 0)
          << "minCred ledger of router " << r << " port " << p
          << " did not drain";
    }
  }
}

TEST(CreditReturn, ManyPacketsFullyDrainEveryLedger) {
  // Same invariant under a burst of hand-injected packets spread over
  // every router pair the uniform pattern can produce — exercises local
  // and global links, multiple VCs, and concurrent credits per lane.
  const SimConfig cfg = quiet_config();
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
  ASSERT_GT(injected, nodes / 2);

  Cycle now = 0;
  for (; now < 20000 && net.packets_in_network() > 0; ++now) net.step(now);
  ASSERT_EQ(net.packets_in_network(), 0) << "burst never fully consumed";
  const Cycle drain_until = now + 3 * cfg.global_latency;
  for (; now < drain_until; ++now) net.step(now);

  EXPECT_EQ(total_ledger_occupancy(net), 0)
      << "some ledger kept phantom occupancy after full drain";
}

}  // namespace
}  // namespace flexnet
