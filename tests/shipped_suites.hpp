// Loads a suite file shipped under examples/suites/ by bare filename (e.g.
// "fig9_vc_selection.json"), from the FLEXNET_SUITE_DIR definition the
// test targets carry. The single resolver for tests.
#pragma once

#include <string>

#include "scenario/suite.hpp"

namespace flexnet {

inline SuiteSpec load_shipped_suite(const std::string& filename) {
  return SuiteSpec::load(std::string(FLEXNET_SUITE_DIR) + "/" + filename);
}

}  // namespace flexnet
