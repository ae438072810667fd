// Core-equivalence gate for the simulation engine.
//
// The engine (Network::step and everything under it) and every component
// it runs may be refactored only if the results stay bit-identical. This
// suite enforces that with golden-report fixtures: the canonical JSON
// report of each shipped suite in kGoldenSuites is recorded under
// tests/golden/, and every run must reproduce it byte for byte, at 1 and
// at 4 workers. A registry walk keeps the table complete: every
// registered component, and both values of every bool config key, must
// be reached by some golden suite, so a new component cannot land
// unguarded and one no golden reaches is dead code to delete.
//
// The allocator's state gather (Network::state_gather) is a prefetch
// selected by network size, so most hosts never run it on the goldens.
// The same reports are therefore rendered with the gather forced on and
// forced off, and a paper-scale network, the size it is selected for,
// must move exactly the same packets either way.
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

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/json_report.hpp"
#include "runner/sweep_runner.hpp"
#include "runner/thread_pool.hpp"
#include "scenario/registry.hpp"
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

/// The shipped suites (examples/suites/NAME.json) whose reports are pinned
/// as tests/golden/NAME.golden.json.
const char* const kGoldenSuites[] = {
    "smoke_tiny",
    "fig9_vc_selection",
    "fig6_flow_control",
    // ON/OFF (bursty) injection: per-burst destinations and the two-state
    // process pin the node phase's generation order.
    "fig6b_bursty_min",
    // Every registered name and bool value the others leave unreached.
    "coverage_tiny",
};

/// The grid of one shipped suite with the golden windows pinned (explicit
/// defaults, warmup/measure), so its configs depend on nothing but the
/// suite file.
std::vector<ExperimentSeries> golden_grid(const SuiteSpec& spec) {
  Options pinned;
  pinned.set("warmup", "2000");
  pinned.set("measure", "4000");
  return spec.materialize(SimConfig{}, &pinned);
}

/// Runs a (series x load x seed) grid into sweep rows.
using GridRun = std::function<std::vector<SweepResult>(
    const std::vector<ExperimentSeries>&, const std::vector<double>&, int)>;

/// The grid through SweepRunner at `jobs` workers.
GridRun runner_run(int jobs) {
  return [jobs](const std::vector<ExperimentSeries>& grid,
                const std::vector<double>& loads, int seeds) {
    return SweepRunner(jobs).run(grid, loads, seeds);
  };
}

/// The grid on 4 workers, every job with the state gather forced `on`,
/// each result in its pre-sized slot and reduced through the runner's own
/// slot reduction.
GridRun gather_forced_run(bool on) {
  return [on](const std::vector<ExperimentSeries>& grid,
              const std::vector<double>& loads, int seeds) {
    std::vector<std::vector<SimResult>> per_seed(
        grid.size() * loads.size(),
        std::vector<SimResult>(static_cast<std::size_t>(seeds)));
    ThreadPool pool(4);
    for (std::size_t s = 0; s < grid.size(); ++s) {
      for (std::size_t l = 0; l < loads.size(); ++l) {
        for (int k = 0; k < seeds; ++k) {
          pool.submit([&, s, l, k] {
            per_seed[s * loads.size() + l][static_cast<std::size_t>(k)] =
                Simulator(SweepRunner::job_config(grid[s].config, loads[l], k))
                    .set_state_gather(on)
                    .run();
          });
        }
      }
    }
    pool.wait_idle();
    return SweepRunner::reduce_slots(grid, loads, per_seed);
  };
}

/// Renders the canonical report of one shipped suite: the bytes depend on
/// nothing but the suite file and the simulation core — no wall-clock, no
/// worker count.
std::string render_suite_report(const std::string& suite_file,
                                const GridRun& run) {
  const SuiteSpec spec = SuiteSpec::load_shipped(suite_file);
  const std::vector<ExperimentSeries> grid = golden_grid(spec);
  const int seeds = spec.seeds_or(1);
  const std::vector<SweepResult> sweeps = run(grid, spec.loads, seeds);

  JsonReport report;
  report.set_meta("suite", suite_file);
  report.set_meta("title", spec.title);
  report.set_meta("config", grid.front().config.summary());
  report.set_meta("seeds", static_cast<std::int64_t>(seeds));
  report.add_sweep(spec.title, sweeps, /*wall_seconds=*/0.0);
  return report.to_json();
}

class GoldenReport : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenReport, ByteIdentical) {
  const std::string name = GetParam();
  const std::string suite_file = name + ".json";
  const std::string path = golden_path(name + ".golden.json");
  if (std::getenv("FLEXNET_UPDATE_GOLDEN") != nullptr) {
    const std::string rendered = render_suite_report(suite_file, runner_run(1));
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
    const std::string rendered = render_suite_report(suite_file,
                                                     runner_run(jobs));
    ASSERT_EQ(rendered, golden)
        << "canonical report of " << suite_file << " at " << jobs
        << " worker(s) differs from the golden " << path;
  }
}

TEST_P(GoldenReport, StateGatherForcedOnAndOff) {
  const std::string name = GetParam();
  const std::string path = golden_path(name + ".golden.json");
  std::string golden;
  ASSERT_TRUE(read_file(path, &golden)) << "missing golden fixture " << path;
  for (const bool on : {true, false}) {
    ASSERT_EQ(render_suite_report(name + ".json", gather_forced_run(on)),
              golden)
        << "canonical report of " << name << " with the state gather forced "
        << (on ? "on" : "off") << " differs from the golden " << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CoreEquivalence, GoldenReport, ::testing::ValuesIn(kGoldenSuites),
    [](const ::testing::TestParamInfo<const char*>& info) {
      // "fig9_vc_selection" -> "Fig9VcSelection".
      std::string name;
      bool upper = true;
      for (const char* c = info.param; *c != '\0'; ++c) {
        if (*c == '_') {
          upper = true;
        } else {
          name += upper ? static_cast<char>(std::toupper(*c)) : *c;
          upper = false;
        }
      }
      return name;
    });

// Every registry kind is a config key, so the names the golden suites
// reach are the values canonical() renders for those keys. A registered
// name no golden suite reaches fails here, as does a bool key some golden
// config never flips: each must get a golden series or be deleted.
TEST(CoreEquivalence, EveryRegisteredComponentReachesAGolden) {
  std::map<std::string, std::set<std::string>> reached;  // key -> values
  for (const char* suite : kGoldenSuites) {
    for (const ExperimentSeries& series :
         golden_grid(SuiteSpec::load_shipped(std::string(suite) + ".json"))) {
      const std::string canonical = series.config.canonical();
      for (std::size_t at = 0; at < canonical.size();) {
        const std::size_t eq = canonical.find('=', at);
        const std::size_t end = canonical.find(';', eq);
        reached[canonical.substr(at, eq - at)].insert(
            canonical.substr(eq + 1, end - eq - 1));
        at = end + 1;
      }
    }
  }
  for (const RegistryListing& listing : list_registries()) {
    ASSERT_EQ(reached.count(listing.kind), 1u)
        << "registry '" << listing.kind << "' is not a config key";
    for (const ComponentInfo& component : listing.components)
      EXPECT_EQ(reached[listing.kind].count(component.name), 1u)
          << listing.kind << " '" << component.name
          << "' is reached by no golden suite";
  }
  for (const auto& [key, values] : reached) {
    if (SimConfig::key_kind(key) != SimConfig::KeyKind::kBool) continue;
    EXPECT_EQ(values, (std::set<std::string>{"0", "1"}))
        << "bool key '" << key << "' takes one value in every golden suite";
  }
}

// --- State gather selection and paper-scale equivalence.

constexpr long kTwoMiB = 2L << 20;

TEST(StateGather, SelectedOnlyPastTheReportedL2) {
  // The sizes a 2 MB L2 host weighs: smoke DF(2,4,2), DF(4,8,4), paper.
  EXPECT_FALSE(state_gather_wanted(std::size_t{85} << 10, kTwoMiB));
  EXPECT_FALSE(state_gather_wanted(std::size_t{1300} << 10, kTwoMiB));
  EXPECT_TRUE(state_gather_wanted(std::size_t{22} << 20, kTwoMiB));
  // No L2 reported: off, whatever the size.
  EXPECT_FALSE(state_gather_wanted(std::size_t{22} << 20, 0));
  EXPECT_FALSE(state_gather_wanted(std::size_t{22} << 20, -1));

  // The networks themselves weigh what the literals above say.
  SimConfig smoke;
  EXPECT_FALSE(state_gather_wanted(Network(smoke).state_gather_bytes(),
                                   kTwoMiB));
  SimConfig mid;
  mid.dragonfly = {4, 8, 4};
  EXPECT_FALSE(state_gather_wanted(Network(mid).state_gather_bytes(),
                                   kTwoMiB));
}

// A paper-scale network (DF(8,16,8), where the gather is selected on a
// 2 MB L2 host) moves exactly the same packets with the gather forced on
// and forced off. PAR routing, so escape grants are exercised too.
TEST(StateGather, PaperScaleForcedOnAndOffAgree) {
  SimConfig cfg;
  cfg.dragonfly = DragonflyParams::paper_scale();
  cfg.routing = "par";
  cfg.policy = "flexvc";
  cfg.vcs = "4/2";
  cfg.load = 0.6;
  struct Counts {
    std::int64_t consumed, grants, re_requests, escape_grants, in_network;
  };
  std::vector<Counts> runs;
  for (const bool on : {true, false}) {
    Network net(cfg);
    EXPECT_TRUE(state_gather_wanted(net.state_gather_bytes(), kTwoMiB));
    net.set_state_gather(on);
    for (Cycle now = 0; now < 300; ++now) net.step(now);
    runs.push_back({net.metrics().consumed_packets(), net.total_grants(),
                    net.re_requests(), net.escape_grants(),
                    net.packets_in_network()});
  }
  EXPECT_GT(runs[0].consumed, 0);
  EXPECT_GT(runs[0].escape_grants, 0);
  EXPECT_EQ(runs[0].consumed, runs[1].consumed);
  EXPECT_EQ(runs[0].grants, runs[1].grants);
  EXPECT_EQ(runs[0].re_requests, runs[1].re_requests);
  EXPECT_EQ(runs[0].escape_grants, runs[1].escape_grants);
  EXPECT_EQ(runs[0].in_network, runs[1].in_network);
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
