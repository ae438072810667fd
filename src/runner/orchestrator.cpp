#include "runner/orchestrator.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "runner/exit_codes.hpp"

namespace flexnet {

// ---------------------------------------------------------------------------
// Command planning.

std::vector<ShardCommand> plan_shard_commands(const OrchestrateSpec& spec) {
  std::vector<ShardCommand> commands;
  commands.reserve(static_cast<std::size_t>(spec.shards));
  for (int i = 0; i < spec.shards; ++i) {
    ShardCommand cmd;
    cmd.shard_index = i;
    cmd.shard_count = spec.shards;
    cmd.journal = spec.journal_prefix + "-" + std::to_string(i + 1) +
                  ".journal";
    cmd.argv = {spec.run_binary,
                spec.suite_path,
                "--shard",
                std::to_string(i + 1) + "/" + std::to_string(spec.shards),
                "--checkpoint",
                cmd.journal,
                "--jobs",
                std::to_string(spec.jobs_per_shard)};
    cmd.argv.insert(cmd.argv.end(), spec.overrides.begin(),
                    spec.overrides.end());
    commands.push_back(std::move(cmd));
  }
  return commands;
}

std::string shell_quote(const std::string& token) {
  // Single-quote unless the token is plain; embedded ' becomes '\''.
  const bool plain =
      !token.empty() &&
      token.find_first_not_of(
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
          "0123456789._-+=/:@%") == std::string::npos;
  if (plain) return token;
  std::string quoted = "'";
  for (const char c : token)
    quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
  quoted += "'";
  return quoted;
}

std::string render_command(const ShardCommand& cmd) {
  std::string line;
  for (const std::string& env : cmd.env)
    line += shell_quote(env) + " ";
  for (std::size_t i = 0; i < cmd.argv.size(); ++i) {
    if (i > 0) line += " ";
    line += shell_quote(cmd.argv[i]);
  }
  return line;
}

// ---------------------------------------------------------------------------
// ForkExecLauncher.

long ForkExecLauncher::launch(const ShardCommand& cmd, int attempt) {
  (void)attempt;
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid != 0) return static_cast<long>(pid);

  // Child. Route its console to a sidecar log (append across attempts,
  // so a restarted shard's history reads in order), apply the extra
  // environment, and exec. Nothing below may return to the caller's
  // stack — failures end in _exit.
  const std::string log_path = cmd.journal + ".log";
  if (std::freopen(log_path.c_str(), "ab", stdout) == nullptr ||
      std::freopen(log_path.c_str(), "ab", stderr) == nullptr) {
    // Unloggable; keep the parent's console rather than dying silently.
  }
  for (const std::string& kv : cmd.env) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    ::setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
  }
  std::vector<char*> argv;
  argv.reserve(cmd.argv.size() + 1);
  for (const std::string& arg : cmd.argv)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  std::fprintf(stderr, "flexnet_orchestrate: cannot exec %s: %s\n",
               argv[0], std::strerror(errno));
  ::_exit(127);
}

bool ForkExecLauncher::poll(long handle, int* exit_code) {
  int status = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(handle), &status, WNOHANG);
  if (r == 0) return false;
  if (r < 0) {
    // Unknown child (reaped elsewhere, ECHILD): all we can report is an
    // unclassified — and therefore retryable — failure.
    *exit_code = exit_code::kFailure;
    return true;
  }
  if (WIFEXITED(status)) {
    *exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    *exit_code = -WTERMSIG(status);
  } else {
    *exit_code = exit_code::kFailure;
  }
  return true;
}

void ForkExecLauncher::kill(long handle) {
  ::kill(static_cast<pid_t>(handle), SIGKILL);
}

// ---------------------------------------------------------------------------
// JournalWatch.

void JournalWatch::restart(double now) {
  last_size_ = -1;
  last_advance_ = now;
}

void JournalWatch::poll(double now) {
  struct stat st {};
  const long long size = ::stat(path_.c_str(), &st) == 0
                             ? static_cast<long long>(st.st_size)
                             : -1;
  if (size != last_size_) last_advance_ = now;
  last_size_ = size;
}

// ---------------------------------------------------------------------------
// Orchestrator.

namespace {

/// Seconds on the steady clock: the time base of backoff deadlines and of
/// every JournalWatch.
double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Renders a decoded exit for humans: "exit 2", "signal 9 (SIGKILL)".
std::string describe_exit(int code) {
  if (code >= 0) return "exit " + std::to_string(code);
  const char* name = strsignal(-code);
  return "signal " + std::to_string(-code) +
         (name != nullptr ? std::string(" (") + name + ")" : std::string());
}

struct Slot {
  enum class State { kRunning, kBackoff, kDone, kFailed };

  explicit Slot(const ShardCommand& cmd)
      : command(&cmd), watch(cmd.journal) {}

  const ShardCommand* command;
  State state = State::kBackoff;  // "due to launch now" before first start
  long handle = -1;
  double backoff_s = 0.0;
  double restart_at = 0.0;  // monotonic_seconds deadline while kBackoff
  bool stale_killed = false;
  JournalWatch watch;
  ShardOutcome out;
};

}  // namespace

Orchestrator::Orchestrator(std::vector<ShardCommand> commands,
                           OrchestratorOptions opt, Launcher* launcher)
    : commands_(std::move(commands)), opt_(opt), launcher_(launcher) {}

OrchestratorReport Orchestrator::run() {
  OrchestratorReport report;
  std::vector<Slot> slots;
  slots.reserve(commands_.size());
  for (const ShardCommand& cmd : commands_) {
    slots.emplace_back(cmd);
    Slot& slot = slots.back();
    slot.out.shard_index = cmd.shard_index;
    slot.backoff_s = opt_.backoff_initial_s;
    slot.restart_at = 0.0;  // immediately due
    report.journals.push_back(cmd.journal);
  }

  const auto shard_tag = [&](const Slot& slot) {
    return std::to_string(slot.command->shard_index + 1) + "/" +
           std::to_string(slot.command->shard_count);
  };
  const auto note = [&](const std::string& line) {
    if (!opt_.quiet)
      std::fprintf(stderr, "orchestrate: %s\n", line.c_str());
  };

  const auto start = [&](Slot& slot, double now) {
    ++slot.out.attempts;
    slot.stale_killed = false;
    slot.watch.restart(now);
    slot.handle = launcher_->launch(*slot.command, slot.out.attempts);
    if (slot.handle <= 0) {
      // Could not even start: consume the attempt as a transient failure.
      slot.state = Slot::State::kBackoff;
      slot.restart_at = now + slot.backoff_s;
      slot.backoff_s *= opt_.backoff_multiplier;
      note("shard " + shard_tag(slot) + ": launch failed (attempt " +
           std::to_string(slot.out.attempts) + ")");
      return;
    }
    slot.state = Slot::State::kRunning;
    note("shard " + shard_tag(slot) + ": launched (attempt " +
         std::to_string(slot.out.attempts) + "/" +
         std::to_string(1 + opt_.max_restarts) + "), journal " +
         slot.command->journal);
  };

  std::string fatal;  // first permanent failure; set => abort everything
  bool all_settled = false;
  while (!all_settled && fatal.empty()) {
    const double now = monotonic_seconds();
    all_settled = true;
    for (Slot& slot : slots) {
      switch (slot.state) {
        case Slot::State::kDone:
        case Slot::State::kFailed:
          continue;
        case Slot::State::kBackoff: {
          all_settled = false;
          if (now < slot.restart_at) break;
          if (slot.out.attempts > opt_.max_restarts) {
            slot.state = Slot::State::kFailed;
            slot.out.failure = "retry budget exhausted (" +
                               std::to_string(slot.out.attempts) +
                               " attempts, last " +
                               describe_exit(slot.out.last_exit) + ")";
            fatal = "shard " + shard_tag(slot) + ": " + slot.out.failure;
            break;
          }
          start(slot, now);
          break;
        }
        case Slot::State::kRunning: {
          all_settled = false;
          int code = 0;
          if (launcher_->poll(slot.handle, &code)) {
            slot.out.last_exit = code;
            if (exit_code::completed(code)) {
              slot.state = Slot::State::kDone;
              slot.out.completed = true;
              if (code == exit_code::kDeadlockOnly)
                report.deadlock_only = true;
              note("shard " + shard_tag(slot) + ": finished (" +
                   describe_exit(code) +
                   (code == exit_code::kDeadlockOnly
                        ? ", every point deadlocked)"
                        : ")"));
            } else if (exit_code::permanent_failure(code)) {
              slot.state = Slot::State::kFailed;
              slot.out.failure =
                  describe_exit(code) +
                  " — a config/suite/journal mismatch repeats forever, "
                  "not retrying (see " +
                  slot.command->journal + ".log)";
              fatal = "shard " + shard_tag(slot) + ": " + slot.out.failure;
              note("shard " + shard_tag(slot) + ": permanent failure, " +
                   describe_exit(code));
            } else {
              // Transient: crash, signal, I/O. Back off and restart with
              // the same --checkpoint so completed jobs are not redone.
              slot.state = Slot::State::kBackoff;
              slot.restart_at = now + slot.backoff_s;
              note("shard " + shard_tag(slot) + ": died (" +
                   describe_exit(code) +
                   (slot.stale_killed ? ", killed for a stale journal"
                                      : "") +
                   ") — restart with resume in " +
                   std::to_string(slot.backoff_s) + "s");
              slot.backoff_s *= opt_.backoff_multiplier;
            }
            break;
          }
          // Still running: is it still alive *inside*? The journal is
          // the cheap proxy — no change in its size for longer than the
          // stale timeout means wedged (SIGSTOP, NFS hang, livelock);
          // kill it and let the exit path restart it.
          slot.watch.poll(now);
          if (!slot.stale_killed &&
              slot.watch.stale_age(now) > opt_.stale_timeout_s) {
            ++slot.out.stale_kills;
            slot.stale_killed = true;
            note("shard " + shard_tag(slot) + ": journal " +
                 slot.command->journal + " stale for " +
                 std::to_string(slot.watch.stale_age(now)) +
                 "s — killing for restart");
            launcher_->kill(slot.handle);
          }
          break;
        }
      }
      if (!fatal.empty()) break;
    }
    if (!all_settled && fatal.empty())
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opt_.poll_interval_s));
  }

  if (!fatal.empty()) {
    // Fail fast but clean: kill the survivors, reap them, and leave every
    // journal resumable for a rerun after the operator fixes the cause.
    for (Slot& slot : slots) {
      if (slot.state == Slot::State::kRunning) {
        launcher_->kill(slot.handle);
        int code = 0;
        while (!launcher_->poll(slot.handle, &code))
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        slot.out.last_exit = code;
        slot.state = Slot::State::kFailed;
        slot.out.failure = "killed while aborting (journal resumes)";
      } else if (slot.state == Slot::State::kBackoff) {
        slot.state = Slot::State::kFailed;
        if (slot.out.failure.empty())
          slot.out.failure = "abandoned while aborting (journal resumes)";
      }
    }
    report.error = fatal;
  }

  report.ok = true;
  for (Slot& slot : slots) {
    report.ok = report.ok && slot.out.completed;
    report.shards.push_back(slot.out);
  }
  return report;
}

}  // namespace flexnet
