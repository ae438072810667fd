#include "common/options.hpp"

#include <sstream>
#include <vector>

namespace flexnet {

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq != std::string::npos)
      opts.values_[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return opts;
}

Options Options::parse_string(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens{"argv0"};
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  std::vector<const char*> argv;
  argv.reserve(tokens.size());
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return parse(static_cast<int>(argv.size()), argv.data());
}

bool Options::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

}  // namespace flexnet
