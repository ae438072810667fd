// Argument-parsing helpers shared by the suite tools (flexnet_run,
// flexnet_merge, flexnet_orchestrate). Keeping these in one place matters
// beyond tidiness: the tools must interpret flags and key=value overrides
// identically, or a shard run and the merge that follows could
// materialize different grids.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "scenario/suite.hpp"
#include "sim/config.hpp"

namespace flexnet::cli {

/// True when argv[*i] is `--name VALUE` or `--name=VALUE`; stores VALUE
/// and advances *i past a separate value argument. A flag with a missing
/// value is a usage error (exit 2).
inline bool flag_value(int argc, char** argv, int* i, const char* name,
                       std::string* out) {
  const std::string tok = argv[*i];
  const std::string flag = std::string("--") + name;
  if (tok == flag) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", flag.c_str());
      std::exit(2);
    }
    *out = argv[++*i];
    return true;
  }
  if (tok.rfind(flag + "=", 0) == 0) {
    *out = tok.substr(flag.size() + 1);
    return true;
  }
  return false;
}

/// Guard for key=value config overrides: a key SimConfig::apply would
/// silently ignore is rejected with the full known-key list (running the
/// wrong experiment silently is worse than an error), and a value apply()
/// cannot parse as its key's kind is rejected naming both. Returns true —
/// after printing the diagnostic — when the override is bad.
inline bool reject_bad_config_override(const std::string& key,
                                       const std::string& value) {
  const auto& known = SimConfig::known_keys();
  if (std::find(known.begin(), known.end(), key) == known.end()) {
    std::fprintf(stderr, "error: unknown config key '%s' — known keys: %s\n",
                 key.c_str(), known_config_keys_list().c_str());
    return true;
  }
  try {
    SimConfig{}.set(key, value);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return true;
  }
  return false;
}

}  // namespace flexnet::cli
