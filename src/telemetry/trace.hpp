// Chrome-trace/Perfetto span output. TraceWriter streams JSON "complete"
// events ("ph":"X") to a file that chrome://tracing and ui.perfetto.dev
// open directly (README "Observability").
//
// Two time domains share one file, separated by pid:
//  - wall-clock spans (sweep jobs, checkpoint I/O, shard lifecycle) on
//    pid 0, tid = worker index, ts/dur in real microseconds since the
//    writer was created;
//  - opt-in per-packet lifetime spans on a per-job pid, tid = pool slot,
//    ts/dur in simulation *cycles* (a cycle renders as a microsecond).
//    Pool slots are reused only after release, so the spans of one tid
//    never overlap — every trace this writer emits nests per (pid, tid),
//    which CI validates.
//
// Thread-safe: each event is rendered to one string and written under a
// mutex, so concurrent workers never interleave bytes.
#pragma once

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>

namespace flexnet {

class TraceWriter {
 public:
  /// Opens `path` and writes the traceEvents prologue. An unopenable path
  /// degrades to a no-op writer (ok() false) — tracing must never kill a
  /// run. An empty path is a silently inert writer (tracing not requested).
  explicit TraceWriter(std::string path);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Wall microseconds since construction (the ts origin of pid-0 spans).
  double now_us() const;

  /// Emits one complete ("X") event. `args_json` is either empty or a
  /// rendered JSON object ("{...}").
  void complete(const char* cat, const std::string& name, int pid, int tid,
                double ts_us, double dur_us,
                const std::string& args_json = std::string());

  /// Emits a process_name metadata event (labels a pid in the UI).
  void process_name(int pid, const std::string& name);

  /// RAII wall-clock span on pid 0: records its start on construction and
  /// emits the X event on destruction.
  class Span {
   public:
    Span() = default;
    Span(TraceWriter* writer, const char* cat, std::string name, int tid)
        : writer_(writer), cat_(cat), name_(std::move(name)), tid_(tid),
          start_us_(writer != nullptr ? writer->now_us() : 0.0) {}
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept {
      end();
      writer_ = other.writer_;
      cat_ = other.cat_;
      name_ = std::move(other.name_);
      tid_ = other.tid_;
      start_us_ = other.start_us_;
      other.writer_ = nullptr;
      return *this;
    }
    ~Span() { end(); }

    void end() {
      if (writer_ == nullptr) return;
      writer_->complete(cat_, name_, /*pid=*/0, tid_, start_us_,
                        writer_->now_us() - start_us_);
      writer_ = nullptr;
    }

   private:
    TraceWriter* writer_ = nullptr;
    const char* cat_ = "";
    std::string name_;
    int tid_ = 0;
    double start_us_ = 0.0;
  };

  Span span(const char* cat, std::string name, int tid) {
    return Span(ok() ? this : nullptr, cat, std::move(name), tid);
  }

  /// Writes the epilogue and closes; further events are dropped. False
  /// when any write since the file opened, or the close itself, failed
  /// (disk full, yanked mount): the trace on disk is then incomplete.
  bool close();

 private:
  void write_event_locked(const std::string& rendered);
  /// Writes `text`, remembering a failed write for close().
  void put(const char* text);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mu_;
  bool first_ = true;
  bool failed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace flexnet
