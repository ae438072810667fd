// Tiny key=value option parser: a suite series' overrides and the suite
// tools' trailing config overrides ("load=0.6 seed=3 vcs=4/2").
#pragma once

#include <map>
#include <string>

namespace flexnet {

class Options {
 public:
  Options() = default;

  /// Parses argv-style "key=value" tokens; tokens without '=' are
  /// ignored.
  static Options parse(int argc, const char* const* argv);

  /// Parses a whitespace-separated "k=v k=v" string.
  static Options parse_string(const std::string& text);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& def) const;

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace flexnet
