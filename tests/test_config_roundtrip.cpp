// Round-trip guard for the checkpoint-fingerprint invariant: every
// override key SimConfig::apply accepts must be represented in
// SimConfig::canonical(). The checkpoint journal fingerprints sweep grids
// over canonical(), so a key that changes the simulation without changing
// canonical() would let a resumed sweep silently reuse stale results.
//
// The test applies each known key in isolation with a value different
// from the default and asserts canonical() changes. The value table must
// cover known_keys() exactly, so a new key table entry needs a mutation
// here too.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.hpp"

namespace flexnet {
namespace {

// One non-default value per known key.
const std::map<std::string, std::string>& mutations() {
  static const std::map<std::string, std::string> m = {
      {"topology", "slimfly"},
      {"df_p", "3"},
      {"df_a", "5"},
      {"df_h", "3"},
      {"paper_scale", "true"},
      {"sf_p", "3"},
      {"sf_q", "13"},
      {"vcs", "4/2"},
      {"policy", "flexvc"},
      {"vc_selection", "random"},
      {"local_buffer", "64"},
      {"global_buffer", "128"},
      {"injection_buffer", "64"},
      {"output_buffer", "48"},
      {"local_port_capacity", "96"},
      {"global_port_capacity", "384"},
      {"buffer_org", "damq"},
      {"flow_control", "wormhole"},
      {"phits_per_packet", "4"},
      {"buffer_mgmt", "on_off"},
      {"damq_private_fraction", "0.5"},
      {"speedup", "3"},
      {"alloc_iters", "3"},
      {"pipeline_latency", "7"},
      {"injection_vcs", "4"},
      {"local_latency", "20"},
      {"global_latency", "50"},
      {"routing", "val"},
      {"pb_per_vc", "true"},
      {"mincred", "true"},
      {"threshold", "5"},
      {"traffic", "adversarial"},
      {"reactive", "true"},
      {"load", "0.77"},
      {"burst_length", "7.5"},
      {"adv_offset", "2"},
      {"reply_queue", "4"},
      {"packet_size", "16"},
      {"sim_domains", "4"},
      {"warmup", "1234"},
      {"measure", "4321"},
      {"seed", "99"},
      {"watchdog", "5000"},
  };
  return m;
}

TEST(ConfigRoundTrip, KnownKeysAreUniqueAndCovered) {
  const auto& keys = SimConfig::known_keys();
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size()) << "duplicate keys in known_keys()";

  // The mutation table and known_keys() must describe the same key set —
  // a new key table entry needs a mutation here.
  for (const auto& key : keys)
    EXPECT_TRUE(mutations().count(key) > 0)
        << "known key '" << key << "' has no mutation in this test; add it "
        << "here";
  for (const auto& [key, value] : mutations())
    EXPECT_TRUE(unique.count(key) > 0)
        << "mutation key '" << key << "' is not in SimConfig::known_keys()";
}

TEST(ConfigRoundTrip, EveryApplyKeyPerturbsCanonical) {
  const std::string base = SimConfig{}.canonical();
  for (const auto& [key, value] : mutations()) {
    Options o;
    o.set(key, value);
    SimConfig cfg;
    cfg.apply(o);
    EXPECT_NE(cfg.canonical(), base)
        << "override " << key << "=" << value << " accepted by apply() but "
        << "invisible in canonical() — checkpoint fingerprints would treat "
        << "the changed grid as unchanged";
  }
}

TEST(ConfigRoundTrip, ApplyIsIdempotentPerKey) {
  // Applying the same overrides twice must land on the same canonical
  // string (guards against keys that accumulate instead of assign).
  Options all;
  for (const auto& [key, value] : mutations()) all.set(key, value);
  SimConfig once;
  once.apply(all);
  SimConfig twice;
  twice.apply(all);
  twice.apply(all);
  EXPECT_EQ(once.canonical(), twice.canonical());
}

TEST(ConfigRoundTrip, ApplyRejectsValuesThatDoNotParseAsTheKeysKind) {
  const auto error_of = [](const std::string& key, const std::string& value) {
    Options o;
    o.set(key, value);
    SimConfig cfg;
    try {
      cfg.apply(o);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  for (const auto& key : SimConfig::known_keys()) {
    std::vector<std::string> bad;
    switch (SimConfig::key_kind(key)) {
      case SimConfig::KeyKind::kInt:
        bad = {"1.5", "abc", "", "7x", " 7"};
        break;
      case SimConfig::KeyKind::kDouble:
        bad = {"abc", "", "0.5x"};
        break;
      case SimConfig::KeyKind::kBool:
        bad = {"maybe", "", "2", "TRUE"};
        break;
      case SimConfig::KeyKind::kString:
        break;  // any text is a string; the registries judge it later
    }
    for (const std::string& value : bad) {
      const std::string msg = error_of(key, value);
      EXPECT_NE(msg.find("'" + key + "'"), std::string::npos)
          << key << "=" << value << " accepted or unnamed: " << msg;
      EXPECT_NE(msg.find("'" + value + "'"), std::string::npos) << msg;
    }
  }
  // int fields must fit an int, the seed must not be negative, and Cycle
  // fields take 64-bit values.
  EXPECT_NE(error_of("local_buffer", "4294967328"), "");
  EXPECT_NE(error_of("seed", "-1"), "");
  EXPECT_EQ(error_of("warmup", "4294967328"), "");
  for (const char* yes : {"true", "1", "yes", "on"})
    EXPECT_EQ(error_of("reactive", yes), "") << yes;
  for (const char* no : {"false", "0", "no", "off"})
    EXPECT_EQ(error_of("reactive", no), "") << no;
  // paper_scale only switches the paper geometry on: false would restore
  // nothing, so it is refused and the df_* keys are named instead.
  for (const char* no : {"false", "0", "no", "off"}) {
    const std::string msg = error_of("paper_scale", no);
    EXPECT_NE(msg.find("'paper_scale'"), std::string::npos) << no << msg;
    EXPECT_NE(msg.find("df_p/df_a/df_h"), std::string::npos) << msg;
  }
  EXPECT_EQ(error_of("paper_scale", "true"), "");

  // set() is the one-key form of apply() and checks values the same way.
  SimConfig one;
  one.set("speedup", "3");
  EXPECT_EQ(one.speedup, 3);
  EXPECT_THROW(one.set("speedup", "1.5"), std::invalid_argument);
  EXPECT_THROW(one.set("speedupp", "3"), std::invalid_argument);
}

TEST(ConfigRoundTrip, CanonicalDistinguishesDefaults) {
  // Sanity: canonical() of the default config is stable within a process.
  EXPECT_EQ(SimConfig{}.canonical(), SimConfig{}.canonical());
}

}  // namespace
}  // namespace flexnet
