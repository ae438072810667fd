// Tiny key=value option parser used by examples and benches to override
// simulation parameters from the command line ("load=0.6 seed=3 vcs=4/2").
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace flexnet {

class Options {
 public:
  Options() = default;

  /// Parses argv-style "key=value" tokens; tokens without '=' are collected
  /// as positional arguments.
  static Options parse(int argc, const char* const* argv);

  /// Parses a whitespace-separated "k=v k=v" string.
  static Options parse_string(const std::string& text);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace flexnet
