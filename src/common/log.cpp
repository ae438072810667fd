#include "common/log.hpp"

#include <cstdio>
#include <mutex>

namespace flexnet {
namespace {

void log_line(const char* tag, const std::string& msg) {
  // Compose the whole line first and emit it under a lock as one write:
  // sweep workers log concurrently (journal I/O failures, runner warnings)
  // and interleaved fragments would make the diagnostics unreadable.
  std::string line = "[flexnet ";
  line += tag;
  line += "] ";
  line += msg;
  line += '\n';
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

}  // namespace

void log_error(const std::string& msg) { log_line("ERROR", msg); }
void log_warn(const std::string& msg) { log_line("WARN", msg); }

}  // namespace flexnet
