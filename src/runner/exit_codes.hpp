// Documented process exit codes of the sweep CLIs (flexnet_run first and
// foremost), shared with the shard orchestrator's retry logic so it can
// tell a failure worth restarting (transient: a crash, a full disk) from
// one that will repeat forever (permanent: a bad flag, a suite that names
// an unregistered component, a checkpoint journal for a different grid).
//
//   0  success — outputs written (some points may still be deadlock-marked)
//   1  unclassified failure (treated as transient: restart may help)
//   2  CLI / config / suite error, including a checkpoint fingerprint
//      mismatch — permanent: rerunning the same command fails the same way
//   3  deadlock-only grid — the run completed and wrote its outputs, but
//      every aggregated point deadlocked; permanent (a restart simulates
//      the same grid) yet the journal is complete and mergeable
//   4  I/O failure writing an output (journal, report, counters, trace) —
//      transient: retried on a healthy filesystem it can succeed
//
// Launchers additionally decode signal deaths as negative codes (-9 for
// SIGKILL and so on); those are always transient from the orchestrator's
// point of view — a node loss or an operator kill, not a property of the
// job.
#pragma once

namespace flexnet::exit_code {

inline constexpr int kOk = 0;
inline constexpr int kFailure = 1;
inline constexpr int kConfig = 2;
inline constexpr int kDeadlockOnly = 3;
inline constexpr int kIo = 4;

/// The process finished its jobs and its journal is complete (a
/// deadlock-only grid still journaled every job — deadlock is a result).
inline constexpr bool completed(int code) {
  return code == kOk || code == kDeadlockOnly;
}

/// Rerunning the identical command line will fail identically; a retry
/// budget must not be spent on it.
inline constexpr bool permanent_failure(int code) { return code == kConfig; }

}  // namespace flexnet::exit_code
