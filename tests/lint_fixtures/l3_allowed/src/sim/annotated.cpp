// Lint fixture (escape hatch): the banned container carries a justified
// allow(L3) on the line above; a trailing allow(L3) on a line without a
// finding suppresses nothing, so the tree scans clean with one suppression.
#include <unordered_map>

namespace flexnet {

// Route cache: keyed lookups only — never iterated, so unordered order
// cannot leak into results.
// flexnet-lint: allow(L3)
std::unordered_map<int, int> route_cache;

int lookup(int key) {
  const auto it = route_cache.find(key);  // flexnet-lint: allow(L3)
  return it == route_cache.end() ? -1 : it->second;
}

}  // namespace flexnet
