#include "telemetry/trace.hpp"

#include <sstream>

#include "common/log.hpp"

namespace flexnet {
namespace {

/// Minimal JSON string escape (names and labels only).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

TraceWriter::TraceWriter(std::string path) : path_(std::move(path)) {
  start_ = std::chrono::steady_clock::now();
  if (path_.empty()) return;  // deliberately inert (tracing not requested)
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    log_warn("cannot open trace file " + path_ +
             "; the run continues without span output");
    return;
  }
  put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

TraceWriter::~TraceWriter() { close(); }

double TraceWriter::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void TraceWriter::complete(const char* cat, const std::string& name, int pid,
                           int tid, double ts_us, double dur_us,
                           const std::string& args_json) {
  if (file_ == nullptr) return;
  std::ostringstream ev;
  ev << "{\"name\":\"" << escape(name) << "\",\"cat\":\"" << cat
     << "\",\"ph\":\"X\",\"ts\":" << number(ts_us)
     << ",\"dur\":" << number(dur_us < 0.0 ? 0.0 : dur_us)
     << ",\"pid\":" << pid << ",\"tid\":" << tid;
  if (!args_json.empty()) ev << ",\"args\":" << args_json;
  ev << "}";
  std::lock_guard<std::mutex> lock(mu_);
  write_event_locked(ev.str());
}

void TraceWriter::process_name(int pid, const std::string& name) {
  if (file_ == nullptr) return;
  std::ostringstream ev;
  ev << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":0,\"args\":{\"name\":\"" << escape(name) << "\"}}";
  std::lock_guard<std::mutex> lock(mu_);
  write_event_locked(ev.str());
}

void TraceWriter::put(const char* text) {
  if (std::fputs(text, file_) == EOF) failed_ = true;
}

void TraceWriter::write_event_locked(const std::string& rendered) {
  if (file_ == nullptr) return;
  put(first_ ? "\n" : ",\n");
  put(rendered.c_str());
  first_ = false;
}

bool TraceWriter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return !failed_;
  put("\n]}\n");
  if (std::fclose(file_) != 0) failed_ = true;
  file_ = nullptr;
  return !failed_;
}

}  // namespace flexnet
