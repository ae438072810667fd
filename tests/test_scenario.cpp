// Scenario layer: the component registries (construction + introspection +
// error reporting) and the declarative suite API (parsing, validation,
// materialization, equivalence of the shipped suite files with the figure
// grids they replaced, and that every shipped suite runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "runner/sweep_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/suite.hpp"
#include "sim/network.hpp"
#include "shipped_suites.hpp"

namespace flexnet {
namespace {

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Registry mechanics (on local tables, so the tests need no builtin name).

using Widgets = Registry<VcSelection>;

TEST(Registry, DuplicateNameRejected) {
  const auto duplicate = [] {
    Widgets reg("widget", {{"alpha", "first", VcSelection::kJsq},
                           {"beta", "", VcSelection::kLowest},
                           {"alpha", "again", VcSelection::kHighest}});
  };
  EXPECT_THROW(duplicate(), RegistryError);
  const std::string msg = thrown_message(duplicate);
  EXPECT_NE(msg.find("duplicate widget 'alpha'"), std::string::npos) << msg;
}

TEST(Registry, EmptyNameRejected) {
  const auto empty = [] { Widgets reg("widget", {{"", "", {}}}); };
  EXPECT_THROW(empty(), RegistryError);
  const std::string msg = thrown_message(empty);
  EXPECT_NE(msg.find("widget"), std::string::npos) << msg;
  EXPECT_NE(msg.find("empty name ''"), std::string::npos) << msg;
}

TEST(Registry, NamesSortedRegardlessOfTableOrder) {
  const Widgets reg("widget", {{"mid", "", VcSelection::kJsq},
                               {"zz", "", VcSelection::kLowest},
                               {"aa", "", VcSelection::kHighest}});
  const std::vector<std::string> expected = {"aa", "mid", "zz"};
  EXPECT_EQ(reg.names(), expected);
  // Stable: a second snapshot is identical.
  EXPECT_EQ(reg.names(), reg.names());
  // Sorting keeps each name with its own payload.
  EXPECT_EQ(reg.at("zz").make, VcSelection::kLowest);
}

TEST(Registry, UnknownNameEnumeratesAlternatives) {
  const Widgets reg("widget", {{"bb", "", VcSelection::kJsq},
                               {"aa", "", VcSelection::kJsq}});
  const std::string msg = thrown_message([&] { reg.at("cc"); });
  EXPECT_NE(msg.find("unknown widget 'cc'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("registered: aa, bb"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Builtin tables.

TEST(BuiltinRegistries, AllComponentsRegistered) {
  using Names = std::vector<std::string>;
  EXPECT_EQ(topology_registry().names(),
            (Names{"dragonfly", "slimfly"}));
  EXPECT_EQ(routing_registry().names(),
            (Names{"min", "par", "pb", "ugal", "val"}));
  EXPECT_EQ(vc_policy_registry().names(), (Names{"baseline", "flexvc"}));
  EXPECT_EQ(vc_selection_registry().names(),
            (Names{"highest", "jsq", "lowest", "random"}));
  EXPECT_EQ(traffic_registry().names(),
            (Names{"adversarial", "bursty", "uniform"}));
  EXPECT_EQ(buffer_org_registry().names(), (Names{"damq", "static"}));
  EXPECT_EQ(flow_control_registry().names(),
            (Names{"packet", "vct", "wormhole"}));
  EXPECT_EQ(buffer_mgmt_registry().names(), (Names{"credit", "on_off"}));
  // Every family's table builds: a malformed one throws here.
  std::vector<RegistryListing> listings;
  ASSERT_NO_THROW(listings = list_registries());
  EXPECT_EQ(listings.size(), 8u);
  for (const RegistryListing& listing : listings)
    for (const ComponentInfo& info : listing.components)
      EXPECT_FALSE(info.description.empty())
          << listing.kind << " '" << info.name << "' has no description";
}

// validate_config checks VC arrangements against the registered shape,
// without building: it must be what every built topology reports.
TEST(BuiltinRegistries, TopologyShapesMatchBuiltTopologies) {
  for (const auto& entry : topology_registry().entries()) {
    SimConfig cfg;
    cfg.topology = entry.name;
    const std::unique_ptr<Topology> topo = entry.make(cfg);
    EXPECT_EQ(topo->typed(), entry.make.shape.typed) << entry.name;
    EXPECT_EQ(topo->diameter(), entry.make.shape.diameter) << entry.name;
  }
}

TEST(BuiltinRegistries, UnknownRoutingMessageListsRegisteredNames) {
  const std::string msg =
      thrown_message([] { routing_registry().at("ugl"); });
  EXPECT_NE(msg.find("unknown routing 'ugl'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("registered: min, par, pb, ugal, val"),
            std::string::npos)
      << msg;
}

// Satellite: the vc_selection and buffer_org dispatch paths (previously
// unguarded relative to the topology throw) now fail with the full list.
TEST(BuiltinRegistries, NetworkConstructionErrorsEnumerateNames) {
  {
    SimConfig cfg;
    cfg.vc_selection = "fifo";
    const std::string msg = thrown_message([&] { Network net(cfg); });
    EXPECT_NE(msg.find("unknown vc_selection 'fifo'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("registered: highest, jsq, lowest, random"),
              std::string::npos)
        << msg;
  }
  {
    SimConfig cfg;
    cfg.buffer_org = "elastic";
    const std::string msg = thrown_message([&] { Network net(cfg); });
    EXPECT_NE(msg.find("unknown buffer_org 'elastic'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("registered: damq, static"), std::string::npos) << msg;
  }
  {
    SimConfig cfg;
    cfg.topology = "torus";
    const std::string msg = thrown_message([&] { Network net(cfg); });
    EXPECT_NE(msg.find("unknown topology 'torus'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("registered: dragonfly, slimfly"),
              std::string::npos)
        << msg;
  }
}

TEST(BuiltinRegistries, ValidateHooksRejectBadConfigs) {
  {
    SimConfig cfg;  // pb off-Dragonfly
    cfg.topology = "slimfly";
    cfg.routing = "pb";
    cfg.vcs = "2";
    const std::string msg = thrown_message([&] { validate_config(cfg); });
    EXPECT_NE(msg.find("topology=dragonfly"), std::string::npos) << msg;
  }
  {
    SimConfig cfg;
    cfg.buffer_org = "damq";
    cfg.damq_private_fraction = 1.5;
    EXPECT_THROW(validate_config(cfg), std::invalid_argument);
  }
  {
    SimConfig cfg;
    cfg.topology = "slimfly";
    cfg.slimfly.q = 9;  // not prime
    EXPECT_THROW(validate_config(cfg), std::invalid_argument);
  }
  // The default configuration is valid.
  EXPECT_NO_THROW(validate_config(SimConfig{}));
}

TEST(BuiltinRegistries, ValidateRejectsOutOfRangeValues) {
  // Links take at least one cycle (a flit or credit is never due in the
  // cycle that pushes it); a router pipeline may take zero. Sizes and
  // allocator settings of zero would run and report garbage (or trip an
  // internal check), a simulation runs on exactly one thread, and a run
  // measures at least one cycle after a non-negative warmup.
  struct Bad {
    const char* key;
    void (*set)(SimConfig&);
  };
  const Bad bad[] = {
      {"local_latency", [](SimConfig& c) { c.local_latency = 0; }},
      {"global_latency", [](SimConfig& c) { c.global_latency = 0; }},
      {"local_latency", [](SimConfig& c) { c.local_latency = -3; }},
      {"pipeline_latency", [](SimConfig& c) { c.pipeline_latency = -1; }},
      {"speedup", [](SimConfig& c) { c.speedup = 0; }},
      {"alloc_iters", [](SimConfig& c) { c.alloc_iters = 0; }},
      {"packet_size", [](SimConfig& c) { c.packet_size = 0; }},
      {"output_buffer", [](SimConfig& c) { c.output_buffer = 0; }},
      {"injection_vcs", [](SimConfig& c) { c.injection_vcs = 0; }},
      {"local_buffer", [](SimConfig& c) { c.local_buffer_per_vc = 0; }},
      {"global_buffer", [](SimConfig& c) { c.global_buffer_per_vc = 0; }},
      {"injection_buffer",
       [](SimConfig& c) { c.injection_buffer_per_vc = 0; }},
      {"watchdog", [](SimConfig& c) { c.watchdog = 0; }},
      {"measure", [](SimConfig& c) { c.measure = 0; }},
      {"warmup", [](SimConfig& c) { c.warmup = -100; }},
      {"sim_domains", [](SimConfig& c) { c.sim_domains = 4; }},
      {"sim_domains", [](SimConfig& c) { c.sim_domains = 0; }},
      // Ceilings of the engine's narrow records, one past each: 16-bit
      // packet phits, a 64-bit armed-VC mask, 16-bit ledger counts (the
      // default 2/1 arrangement has 2 local VCs and 1 global VC) and
      // 32-bit event stamps (the default latencies' horizon is 101).
      {"packet_size", [](SimConfig& c) { c.packet_size = 32768; }},
      {"injection_vcs", [](SimConfig& c) { c.injection_vcs = 65; }},
      {"local_buffer", [](SimConfig& c) { c.local_buffer_per_vc = 16384; }},
      {"global_buffer",
       [](SimConfig& c) { c.global_buffer_per_vc = 32768; }},
      {"local_port_capacity",
       [](SimConfig& c) { c.local_port_capacity = 32768; }},
      {"global_port_capacity",
       [](SimConfig& c) { c.global_port_capacity = 32768; }},
      {"warmup + measure",
       [](SimConfig& c) {
         c.warmup = 2147483547;
         c.measure = 1;
       }},
      {"warmup + measure",
       [](SimConfig& c) { c.measure = std::int64_t{1} << 40; }},
  };
  for (const Bad& b : bad) {
    SimConfig cfg;
    b.set(cfg);
    const std::string msg = thrown_message([&] { validate_config(cfg); });
    EXPECT_NE(msg.find(b.key), std::string::npos) << msg;
    EXPECT_THROW(Network net(cfg), std::invalid_argument) << b.key;
  }
  const std::string domains = thrown_message([] {
    SimConfig cfg;
    cfg.sim_domains = 4;
    validate_config(cfg);
  });
  EXPECT_NE(domains.find("--jobs"), std::string::npos) << domains;
  SimConfig edge;
  edge.local_latency = 1;
  edge.global_latency = 1;
  edge.pipeline_latency = 0;
  edge.speedup = 1;
  edge.alloc_iters = 1;
  edge.packet_size = 1;
  edge.output_buffer = 1;
  edge.injection_vcs = 1;
  edge.local_buffer_per_vc = 1;
  edge.global_buffer_per_vc = 1;
  edge.injection_buffer_per_vc = 1;
  edge.watchdog = 1;
  edge.sim_domains = 1;
  edge.warmup = 0;
  edge.measure = 1;
  EXPECT_NO_THROW(validate_config(edge));
  // ...and each ceiling itself.
  void (*const at_ceiling[])(SimConfig&) = {
      [](SimConfig& c) { c.packet_size = 32767; },
      [](SimConfig& c) { c.injection_vcs = 64; },
      [](SimConfig& c) { c.local_buffer_per_vc = 16383; },
      [](SimConfig& c) { c.global_buffer_per_vc = 32767; },
      [](SimConfig& c) { c.local_port_capacity = 32767; },
      [](SimConfig& c) { c.global_port_capacity = 32767; },
      [](SimConfig& c) {
        c.warmup = 2147483546;
        c.measure = 1;
      },
  };
  for (const auto set : at_ceiling) {
    SimConfig cfg;
    set(cfg);
    EXPECT_NO_THROW(validate_config(cfg));
  }
  // Untyped networks have no global ports: the global ceilings skip them.
  SimConfig slimfly;
  slimfly.topology = "slimfly";
  slimfly.vcs = "3";
  slimfly.global_buffer_per_vc = 1 << 20;
  EXPECT_NO_THROW(validate_config(slimfly));
}

TEST(ShippedSuites, PerfbenchSuitePinningOneDomainValidates) {
  // The benchmark's paper-scale suite pins "sim_domains": 1, the one legal
  // value of the retired key.
  const SuiteSpec spec = SuiteSpec::load(
      std::string(FLEXNET_SOURCE_DIR) + "/perfbench/suites/paper_un_min.json");
  const auto grid = spec.materialize(SimConfig{});
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].config.sim_domains, 1);
  EXPECT_NO_THROW(validate_config(grid[0].config));
}

TEST(BuiltinRegistries, RejectsRoutersWiderThanTheAllocatorMask) {
  // Stage 1 of the allocator walks one 64-bit word of input ports per
  // router (network + injection). Dragonfly(63,2,1) has 2 network ports
  // and 63 nodes per router: 65 inputs.
  SimConfig cfg;
  cfg.dragonfly = {63, 2, 1};
  std::string msg = thrown_message([&] { validate_config(cfg); });
  EXPECT_NE(msg.find("dragonfly(p=63,a=2,h=1)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("65 input ports"), std::string::npos) << msg;
  // 62 nodes per router make exactly 64 inputs: accepted.
  cfg.dragonfly = {62, 2, 1};
  cfg.load = 0.0;
  EXPECT_NO_THROW(Network net(cfg));
  // Slim Fly MMS(5) routers have (3*5-1)/2 = 7 network ports.
  SimConfig sf;
  sf.topology = "slimfly";
  sf.vcs = "2";
  sf.slimfly = {58, 5};
  msg = thrown_message([&] { validate_config(sf); });
  EXPECT_NE(msg.find("slimfly(p=58,q=5)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("65 input ports"), std::string::npos) << msg;
  sf.slimfly = {57, 5};
  EXPECT_NO_THROW(validate_config(sf));
  // The validators' widths are the built topologies' widths.
  for (const SimConfig& c : {cfg, sf}) {
    const auto topo = topology_registry().at(c.topology).make(c);
    EXPECT_EQ(topo->max_network_ports() + topo->concentration(), 64)
        << topo->name();
  }
}

TEST(BuiltinRegistries, ValidateRejectsMoreVcsThanALedgerHolds) {
  // A sender-side credit ledger keeps its per-VC counters inline.
  SimConfig cfg;
  cfg.vcs = "9/1+8/1";  // 17 local VCs per port
  cfg.reactive = true;
  const std::string msg = thrown_message([&] { validate_config(cfg); });
  EXPECT_NE(msg.find("17 VCs"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'9/1+8/1'"), std::string::npos) << msg;
  cfg.vcs = "8/1+8/1";  // 16: at the limit
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(BuiltinRegistries, MinimumLatenciesDeliver) {
  // The smallest accepted timing, in packet and flit mode: one-cycle links
  // and a zero-cycle pipeline (a packet leaves the cycle it is granted).
  for (const char* fc : {"packet", "vct"}) {
    SimConfig cfg;
    cfg.flow_control = fc;
    cfg.local_latency = 1;
    cfg.global_latency = 1;
    cfg.pipeline_latency = 0;
    cfg.load = 0.5;
    Network net(cfg);
    for (Cycle now = 0; now < 400; ++now) net.step(now);
    EXPECT_GT(net.metrics().consumed_packets(), 0) << fc;
  }
}

// ---------------------------------------------------------------------------
// Suite parsing.

constexpr char kGoodSuite[] = R"json({
  "title": "demo",
  "description": "two series",
  "base": {"traffic": "uniform", "routing": "min", "load": 1.0},
  "series": [
    {"label": "Baseline", "overrides": {"policy": "baseline", "vcs": "2/1"}},
    {"label": "FlexVC", "overrides": {"policy": "flexvc", "vcs": "4/2"}}
  ],
  "loads": [0.5, 1.0],
  "seeds": 3
})json";

TEST(SuiteSpec, ParsesWellFormedDocument) {
  const SuiteSpec spec = SuiteSpec::parse(kGoodSuite);
  EXPECT_EQ(spec.title, "demo");
  EXPECT_EQ(spec.description, "two series");
  ASSERT_EQ(spec.series.size(), 2u);
  EXPECT_EQ(spec.series[0].label, "Baseline");
  EXPECT_EQ(spec.series[1].label, "FlexVC");
  EXPECT_EQ(spec.loads, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(spec.seeds, 3);
  EXPECT_EQ(spec.seeds_or(7), 3);
  // JSON scalars reach SimConfig::apply as their command-line spelling.
  EXPECT_EQ(spec.base.get("load", ""), "1");
  EXPECT_EQ(spec.series[1].overrides.get("vcs", ""), "4/2");
}

TEST(SuiteSpec, SeedsDefaultToCaller) {
  const SuiteSpec spec = SuiteSpec::parse(R"json({
    "title": "t",
    "series": [{"label": "s", "overrides": {}}],
    "loads": [0.5]
  })json");
  EXPECT_EQ(spec.seeds, 0);
  EXPECT_EQ(spec.seeds_or(7), 7);
}

TEST(SuiteSpec, LoadRangeExpandsLikeLoadPoints) {
  const SuiteSpec spec = SuiteSpec::parse(R"json({
    "title": "t",
    "series": [{"label": "s"}],
    "loads": {"from": 0.2, "to": 1.0, "count": 5}
  })json");
  EXPECT_EQ(spec.loads, load_points(0.2, 1.0, 5));
}

TEST(SuiteSpec, RejectsMalformedDocuments) {
  const auto error_of = [](const std::string& text) {
    return thrown_message([&] { SuiteSpec::parse(text, "doc"); });
  };
  // Every message is prefixed with the origin.
  EXPECT_NE(error_of("{").find("doc:"), std::string::npos);
  EXPECT_NE(error_of("[1]").find("top level"), std::string::npos);
  EXPECT_NE(error_of(R"({"series": [], "loads": [1]})").find("'title'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"title": "t", "loads": [1]})").find("'series'"),
            std::string::npos);
  EXPECT_NE(
      error_of(R"({"title": "t", "series": [{"label": "s"}]})").find("'loads'"),
      std::string::npos);
  EXPECT_NE(error_of(R"({"title": "t", "series": [{"label": "s"}],
                         "loads": []})")
                .find("empty"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"title": "t", "series": [{"label": "s"}],
                         "loads": [0]})")
                .find("> 0"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"title": "t", "series": [{"label": "s"}],
                         "loads": [1], "bogus": 1})")
                .find("unknown top-level key 'bogus'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"title": "t", "loads": [1],
                         "series": [{"label": "s"}, {"label": "s"}]})")
                .find("duplicate series label 's'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"title": "t", "loads": [1], "seeds": 0,
                         "series": [{"label": "s"}]})")
                .find("'seeds'"),
            std::string::npos);
  // Counts beyond int range are rejected on the double, before any cast
  // (a cast of 1e10 to int is undefined behaviour).
  for (const char* n : {"1e10", "-1e10", "2.5"}) {
    SCOPED_TRACE(n);
    EXPECT_NE(error_of(std::string(R"({"title": "t", "loads": [1], "seeds": )") +
                       n + R"(, "series": [{"label": "s"}]})")
                  .find("'seeds' must be a positive integer"),
              std::string::npos);
    EXPECT_NE(error_of(std::string(R"({"title": "t", "series": [{"label": "s"}],
                         "loads": {"from": 0.1, "to": 1.0, "count": )") +
                       n + "}}")
                  .find("'loads' count must be a positive integer"),
              std::string::npos);
  }
  // Range bounds must be numbers, not number-looking strings.
  EXPECT_NE(error_of(R"({"title": "t", "series": [{"label": "s"}],
                         "loads": {"from": "0.1", "to": 1.0, "count": 3}})")
                .find("must be numbers"),
            std::string::npos);
}

TEST(SuiteSpec, RejectsValuesApplyWouldMisparse) {
  const auto error_of = [](const std::string& overrides) {
    return thrown_message([&] {
      SuiteSpec::parse(R"({"title": "t", "loads": [1], "series": [
        {"label": "s", "overrides": )" +
                           overrides + "}]}", "doc");
    });
  };
  // An int key takes only integers.
  EXPECT_NE(error_of(R"({"speedup": 1.5})").find("must be an integer"),
            std::string::npos);
  // A JSON string is checked exactly like the same text on a command line.
  EXPECT_NE(error_of(R"({"speedup": "1.5"})").find("must be an integer"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"reactive": "maybe"})").find("'maybe'"),
            std::string::npos);
  // Bool keys take JSON booleans, string keys take strings.
  EXPECT_NE(error_of(R"({"reactive": 1})").find("takes true or false"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"topology": 3})").find("takes a string"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"load": true})").find("does not take a boolean"),
            std::string::npos);
  // Valid shapes parse: integral number for an int key, real for a double
  // key, boolean for a bool key.
  EXPECT_EQ(error_of(R"({"speedup": 1, "load": 0.75, "reactive": true})"),
            "");
}

TEST(SuiteSpec, RejectsUnknownOverrideKeysWithSeriesLabel) {
  const std::string msg = thrown_message([] {
    SuiteSpec::parse(R"json({
      "title": "t",
      "series": [{"label": "typo series", "overrides": {"polcy": "flexvc"}}],
      "loads": [1.0]
    })json",
                     "doc");
  });
  EXPECT_NE(msg.find("series 'typo series'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown config key 'polcy'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("known keys:"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Materialization against the registries.

TEST(SuiteSpec, MaterializeAppliesBaseExtraAndSeriesInOrder) {
  const SuiteSpec spec = SuiteSpec::parse(kGoodSuite);
  SimConfig defaults;
  defaults.measure = 12345;
  Options extra;
  extra.set("traffic", "bursty");  // overrides the suite base
  const auto grid = spec.materialize(defaults, &extra);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].label, "Baseline");
  EXPECT_EQ(grid[0].config.measure, 12345);       // defaults survive
  EXPECT_EQ(grid[0].config.traffic, "bursty");    // extra beats base
  EXPECT_EQ(grid[0].config.routing, "min");       // base applies
  EXPECT_EQ(grid[0].config.policy, "baseline");   // series wins
  EXPECT_EQ(grid[1].config.policy, "flexvc");
  EXPECT_EQ(grid[1].config.vcs, "4/2");
}

TEST(SuiteSpec, UnknownComponentNamesSurfaceSeriesLabel) {
  const SuiteSpec spec = SuiteSpec::parse(R"json({
    "title": "t",
    "series": [
      {"label": "ok", "overrides": {"routing": "min"}},
      {"label": "typo routing", "overrides": {"routing": "ugl"}}
    ],
    "loads": [1.0]
  })json");
  const std::string msg =
      thrown_message([&] { spec.materialize(SimConfig{}); });
  EXPECT_NE(msg.find("series 'typo routing'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown routing 'ugl'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("registered: min, par, pb, ugal, val"),
            std::string::npos)
      << msg;
}

TEST(SuiteSpec, ValidateHookFailuresSurfaceSeriesLabel) {
  const SuiteSpec spec = SuiteSpec::parse(R"json({
    "title": "t",
    "base": {"topology": "slimfly", "vcs": "2"},
    "series": [{"label": "PB off-Dragonfly", "overrides": {"routing": "pb"}}],
    "loads": [1.0]
  })json");
  const std::string msg =
      thrown_message([&] { spec.materialize(SimConfig{}); });
  EXPECT_NE(msg.find("series 'PB off-Dragonfly'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("topology=dragonfly"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Shipped suite files: each figure grid, rebuilt by hand exactly as the
// bench main that used to run it built it, must materialize from
// SimConfig{} (as flexnet_run does) to identical labels, loads and
// canonical configs — the bit-identity guarantee behind
// `flexnet_run examples/suites/<figure>.json`.

/// The config every figure main started from: Table V on the (2,4,2)
/// Dragonfly, warmup 10,000, measure 20,000.
SimConfig bench_defaults() {
  SimConfig cfg;
  cfg.dragonfly = DragonflyParams{2, 4, 2};
  cfg.warmup = 10000;
  cfg.measure = 20000;
  return cfg;
}

void expect_suite_matches(const std::string& file,
                          const std::vector<double>& loads,
                          const std::vector<ExperimentSeries>& expected) {
  SCOPED_TRACE(file);
  const SuiteSpec spec = load_shipped_suite(file);
  EXPECT_EQ(spec.loads, loads);
  EXPECT_EQ(spec.seeds_or(1), 1);
  const auto grid = spec.materialize(SimConfig{});
  ASSERT_EQ(grid.size(), expected.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].label, expected[i].label) << i;
    EXPECT_EQ(grid[i].config.canonical(), expected[i].config.canonical())
        << "series '" << grid[i].label << "' diverges from the bench grid";
  }
}

TEST(ShippedSuites, Fig9MatchesTheBenchGridItReplaced) {
  // The grid exactly as bench_fig9_vc_selection.cpp used to build it.
  SimConfig base = bench_defaults();
  base.reactive = true;
  base.traffic = "uniform";
  base.routing = "min";
  base.load = 1.0;
  std::vector<ExperimentSeries> expected;
  {
    SimConfig cfg = base;
    cfg.vcs = "2/1+2/1";
    cfg.policy = "baseline";
    expected.push_back({"Baseline 2/1+2/1", cfg});
    cfg.buffer_org = "damq";
    expected.push_back({"DAMQ 2/1+2/1 75%", cfg});
  }
  const char* arrangements[] = {"2/1+2/1", "2/1+3/2", "3/2+2/1",
                                "2/1+4/3", "3/2+3/2", "4/3+2/1"};
  const char* selections[] = {"jsq", "highest", "lowest", "random"};
  for (const char* arr : arrangements) {
    for (const char* sel : selections) {
      SimConfig cfg = base;
      cfg.policy = "flexvc";
      cfg.vcs = arr;
      cfg.vc_selection = sel;
      expected.push_back({std::string(arr) + " " + sel, cfg});
    }
  }
  expect_suite_matches("fig9_vc_selection.json", {1.0}, expected);
}

TEST(ShippedSuites, Fig5MatchesTheBenchGridItReplaced) {
  // bench_fig5_oblivious.cpp: panel_series() for (a) and (b), an inline
  // list for (c), all over load_points(0.1, 1.0, 7).
  const auto panel = [](SimConfig cfg, const std::string& min_vcs) {
    std::vector<ExperimentSeries> out;
    cfg.vcs = min_vcs;
    cfg.policy = "baseline";
    out.push_back({"Baseline", cfg});
    cfg.buffer_org = "damq";
    out.push_back({"DAMQ 75%", cfg});
    cfg.buffer_org = "static";
    cfg.policy = "flexvc";
    out.push_back({"FlexVC " + min_vcs + "VCs", cfg});
    cfg.vcs = "4/2";
    out.push_back({"FlexVC 4/2VCs", cfg});
    cfg.vcs = "8/4";
    out.push_back({"FlexVC 8/4VCs", cfg});
    return out;
  };
  const auto loads = load_points(0.1, 1.0, 7);
  SimConfig cfg = bench_defaults();
  cfg.routing = "min";
  cfg.traffic = "uniform";
  expect_suite_matches("fig5a_uniform_min.json", loads, panel(cfg, "2/1"));
  cfg.traffic = "bursty";
  expect_suite_matches("fig5b_bursty_min.json", loads, panel(cfg, "2/1"));

  cfg.traffic = "adversarial";
  cfg.routing = "val";
  std::vector<ExperimentSeries> c;
  cfg.vcs = "4/2";
  cfg.policy = "baseline";
  c.push_back({"Baseline", cfg});
  cfg.buffer_org = "damq";
  c.push_back({"DAMQ 75%", cfg});
  cfg.buffer_org = "static";
  cfg.policy = "flexvc";
  c.push_back({"FlexVC 4/2VCs", cfg});
  cfg.vcs = "8/4";
  c.push_back({"FlexVC 8/4VCs", cfg});
  expect_suite_matches("fig5c_adversarial_val.json", loads, c);
}

TEST(ShippedSuites, Fig7MatchesTheBenchGridItReplaced) {
  // bench_fig7_request_reply.cpp: min_series()/val_series() over
  // reactive traffic and load_points(0.2, 1.0, 6).
  const auto series = [](SimConfig cfg, const char* base_vcs,
                         std::vector<const char*> flex) {
    std::vector<ExperimentSeries> out;
    cfg.vcs = base_vcs;
    cfg.policy = "baseline";
    out.push_back({"Baseline", cfg});
    cfg.buffer_org = "damq";
    out.push_back({"DAMQ", cfg});
    cfg.buffer_org = "static";
    cfg.policy = "flexvc";
    for (const char* vcs : flex) {
      cfg.vcs = vcs;
      out.push_back({std::string("FlexVC ") + vcs, cfg});
    }
    return out;
  };
  const std::vector<const char*> min_sets = {
      "2/1+2/1", "2/1+3/2", "3/2+2/1", "2/1+4/3", "3/2+3/2", "4/3+2/1"};
  const auto loads = load_points(0.2, 1.0, 6);
  SimConfig cfg = bench_defaults();
  cfg.reactive = true;
  cfg.routing = "min";
  cfg.traffic = "uniform";
  expect_suite_matches("fig7a_uniform_min.json", loads,
                       series(cfg, "2/1+2/1", min_sets));
  cfg.traffic = "bursty";
  expect_suite_matches("fig7b_bursty_min.json", loads,
                       series(cfg, "2/1+2/1", min_sets));
  cfg.traffic = "adversarial";
  cfg.routing = "val";
  expect_suite_matches("fig7c_adversarial_val.json", loads,
                       series(cfg, "4/2+4/2",
                              {"4/2+4/2", "5/3+5/3", "6/4+4/2"}));
}

TEST(ShippedSuites, Fig8MatchesTheBenchGridItReplaced) {
  // bench_fig8_adaptive.cpp: pb_series() over reactive traffic and
  // load_points(0.2, 1.0, 6); later series inherit earlier assignments.
  const auto pb_series = [](SimConfig cfg, const std::string& reference) {
    std::vector<ExperimentSeries> out;
    cfg.routing = reference;
    cfg.policy = "baseline";
    cfg.vcs = reference == "min" ? "2/1+2/1" : "4/2+4/2";
    out.push_back({reference == "min" ? "MIN" : "VAL", cfg});
    cfg.routing = "pb";
    cfg.vcs = "4/2+4/2";
    cfg.pb_per_vc = true;
    out.push_back({"PB - per VC", cfg});
    cfg.pb_per_vc = false;
    out.push_back({"PB - per port", cfg});
    cfg.policy = "flexvc";
    cfg.vcs = "4/2+2/1";
    cfg.pb_per_vc = true;
    out.push_back({"PB FlexVC - per VC", cfg});
    cfg.pb_per_vc = false;
    out.push_back({"PB FlexVC - per port", cfg});
    cfg.mincred = true;
    cfg.pb_per_vc = true;
    out.push_back({"PB FlexVC - per VC min", cfg});
    cfg.pb_per_vc = false;
    out.push_back({"PB FlexVC - per port min", cfg});
    return out;
  };
  const auto loads = load_points(0.2, 1.0, 6);
  SimConfig cfg = bench_defaults();
  cfg.reactive = true;
  cfg.traffic = "uniform";
  expect_suite_matches("fig8a_uniform_pb.json", loads, pb_series(cfg, "min"));
  cfg.traffic = "bursty";
  expect_suite_matches("fig8b_bursty_pb.json", loads, pb_series(cfg, "min"));
  cfg.traffic = "adversarial";
  expect_suite_matches("fig8c_adversarial_pb.json", loads,
                       pb_series(cfg, "val"));
}

TEST(ShippedSuites, Fig10MatchesTheBenchGridItReplaced) {
  // bench_fig10_damq_reservation.cpp: one series per private fraction.
  SimConfig base = bench_defaults();
  base.traffic = "uniform";
  base.routing = "min";
  base.vcs = "2/1";
  base.policy = "baseline";
  base.buffer_org = "damq";
  base.watchdog = 5000;
  std::vector<ExperimentSeries> expected;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    SimConfig cfg = base;
    cfg.damq_private_fraction = frac;
    expected.push_back(
        {std::to_string(static_cast<int>(frac * 100)) + "% private", cfg});
  }
  expect_suite_matches("fig10_damq_reservation.json",
                       load_points(0.2, 1.0, 6), expected);
}

TEST(ShippedSuites, ExtParMatchesTheBenchGridItReplaced) {
  // bench_ext_par_intransit.cpp: one sweep per traffic pattern.
  for (const char* traffic : {"uniform", "adversarial"}) {
    std::vector<ExperimentSeries> s;
    SimConfig cfg = bench_defaults();
    cfg.traffic = traffic;
    cfg.routing = "min";
    cfg.vcs = "2/1";
    cfg.policy = "baseline";
    s.push_back({"MIN 2/1", cfg});
    cfg.routing = "val";
    cfg.vcs = "4/2";
    s.push_back({"VAL 4/2", cfg});
    cfg.routing = "par";
    cfg.vcs = "5/2";
    s.push_back({"PAR baseline 5/2", cfg});
    cfg.policy = "flexvc";
    s.push_back({"PAR FlexVC 5/2", cfg});
    cfg.vcs = "3/2";
    s.push_back({"PAR FlexVC 3/2", cfg});
    expect_suite_matches(std::string("ext_par_") + traffic + ".json",
                         load_points(0.1, 1.0, 6), s);
  }
}

TEST(ShippedSuites, ExtSlimFlyMatchesTheBenchGridItReplaced) {
  // bench_ext_slimfly_adaptive.cpp: MMS(q=5) with p=2, per traffic.
  for (const char* traffic : {"uniform", "adversarial"}) {
    std::vector<ExperimentSeries> s;
    SimConfig cfg = bench_defaults();
    cfg.topology = "slimfly";
    cfg.slimfly = {2, 5};
    cfg.traffic = traffic;
    cfg.routing = "min";
    cfg.vcs = "2";
    cfg.policy = "baseline";
    s.push_back({"MIN baseline 2VC", cfg});
    cfg.routing = "val";
    cfg.vcs = "4";
    s.push_back({"VAL baseline 4VC", cfg});
    cfg.policy = "flexvc";
    s.push_back({"VAL FlexVC 4VC", cfg});
    cfg.vcs = "3";
    s.push_back({"VAL FlexVC 3VC opport.", cfg});
    cfg.routing = "ugal";
    cfg.vcs = "4";
    s.push_back({"UGAL FlexVC 4VC", cfg});
    cfg.mincred = true;
    s.push_back({"UGAL FlexVC 4VC minCred", cfg});
    expect_suite_matches(std::string("ext_slimfly_") + traffic + ".json",
                         load_points(0.1, 1.0, 6), s);
  }
}

TEST(ShippedSuites, AllShippedSuitesMaterialize) {
  // Every file in the suites directory, so a new suite cannot be missed.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLEXNET_SUITE_DIR))
    if (entry.path().extension() == ".json")
      files.push_back(entry.path().filename().string());
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 25u);
  // Each suite also runs, in windows short enough for seconds in all: a
  // suite that no longer runs fails here, not at paper scale. A deadlocked
  // row is a result, not a failure.
  Options tiny;
  tiny.set("warmup", "200");
  tiny.set("measure", "400");
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    const SuiteSpec spec = load_shipped_suite(file);
    EXPECT_FALSE(spec.title.empty());
    EXPECT_FALSE(spec.description.empty());
    EXPECT_FALSE(spec.materialize(SimConfig{}).empty());
    const auto grid = spec.materialize(SimConfig{}, &tiny);
    const std::vector<SweepResult> sweeps =
        SweepRunner(4).run(grid, spec.loads, spec.seeds_or(1));
    ASSERT_EQ(sweeps.size(), grid.size());
    for (const SweepResult& sweep : sweeps) {
      ASSERT_EQ(sweep.rows.size(), spec.loads.size()) << sweep.label;
      for (const SweepRow& row : sweep.rows)
        EXPECT_TRUE(row.result.deadlock || row.result.consumed_packets > 0)
            << sweep.label << " at load " << row.load;
    }
  }
}

TEST(ShippedSuites, CapacityPanelGridShape) {
  const SuiteSpec spec = load_shipped_suite("fig6a_uniform_min.json");
  // 4 capacities x (Baseline, DAMQ, FlexVC 2/1, 4/2, 8/4).
  EXPECT_EQ(spec.series.size(), 20u);
  EXPECT_EQ(spec.loads, (std::vector<double>{0.7, 0.85, 1.0}));
  const auto grid = spec.materialize(bench_defaults());
  EXPECT_EQ(grid[0].label, "Baseline @64/256");
  EXPECT_EQ(grid[0].config.local_port_capacity, 64);
  EXPECT_EQ(grid[0].config.global_port_capacity, 256);
  EXPECT_EQ(grid[0].config.policy, "baseline");
  // Fig 11 is the same grid with speedup pinned to 1 in the suite base.
  const SuiteSpec no_speedup = load_shipped_suite("fig11a_uniform_min.json");
  const auto grid11 = no_speedup.materialize(bench_defaults());
  EXPECT_EQ(grid11[0].config.speedup, 1);
  EXPECT_EQ(grid[0].config.speedup, 2);
}

}  // namespace
}  // namespace flexnet
