// Argument-parsing and exit-code helpers shared by the suite tools
// (flexnet_run, flexnet_merge, flexnet_orchestrate). Keeping these in one
// place matters beyond tidiness: the tools must interpret flags and
// key=value overrides identically, or a shard run and the merge that
// follows could materialize different grids, and they must map a failure
// to the same exit code, or the orchestrator retries what will repeat.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "runner/checkpoint.hpp"
#include "runner/exit_codes.hpp"
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
      std::exit(exit_code::kConfig);
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

/// Parses the value of --NAME as a whole number (integral T) or a finite
/// number (floating T), at least `min`. Anything else — empty, "abc",
/// "2x", out of T's range, below `min` — is a usage error naming the flag
/// (exit 2): atoi/atof would read it as 0 or as a prefix and run what
/// nobody asked for.
template <typename T>
T numeric_flag(const char* name, const std::string& value, T min) {
  static_assert(std::is_arithmetic_v<T>, "numeric flags only");
  const char* text = value.c_str();
  char* end = nullptr;
  errno = 0;
  bool ok = !value.empty() &&
            !std::isspace(static_cast<unsigned char>(value.front()));
  T v{};
  if constexpr (std::is_integral_v<T>) {
    const long long n = std::strtoll(text, &end, 10);
    ok = ok && n >= static_cast<long long>(std::numeric_limits<T>::min()) &&
         n <= static_cast<long long>(std::numeric_limits<T>::max());
    v = static_cast<T>(n);
  } else {
    v = static_cast<T>(std::strtod(text, &end));
    ok = ok && std::isfinite(v);
  }
  if (!ok || errno != 0 || *end != '\0' || v < min) {
    std::ostringstream bound;
    bound << min;
    std::fprintf(stderr, "error: --%s takes %s >= %s, got '%s'\n", name,
                 std::is_integral_v<T> ? "a whole number" : "a number",
                 bound.str().c_str(), value.c_str());
    std::exit(exit_code::kConfig);
  }
  return v;
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

/// The one mapping from an exception that escapes a tool's main to its
/// documented exit code (runner/exit_codes.hpp). Prints "error: WHAT" and
/// returns the code:
///   * CheckpointIoError: 4, the filesystem failed; a retry can resume.
///   * CheckpointError (a journal for another grid, or corrupt),
///     SuiteError and std::invalid_argument (config, override and
///     registry errors): 2, rerunning the same command repeats it.
///   * anything else: 1, unclassified and worth a retry.
inline int error_exit(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  if (dynamic_cast<const CheckpointIoError*>(&e) != nullptr)
    return exit_code::kIo;
  if (dynamic_cast<const CheckpointError*>(&e) != nullptr ||
      dynamic_cast<const SuiteError*>(&e) != nullptr ||
      dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
    return exit_code::kConfig;
  return exit_code::kFailure;
}

}  // namespace flexnet::cli
