// Minimal logger. The simulator's inner loop never logs; logging is
// reserved for warnings and fatal diagnostics, each one line on stderr.
#pragma once

#include <string>

namespace flexnet {

void log_error(const std::string& msg);
void log_warn(const std::string& msg);

}  // namespace flexnet
