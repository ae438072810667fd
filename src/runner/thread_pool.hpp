// Fixed-size worker pool for the sweep runner: jobs are queued FIFO and
// executed by `size()` worker threads. The pool is deliberately minimal —
// no futures, no work stealing — because sweep jobs are coarse (one whole
// simulation each) and results are written into pre-sized slots by the
// caller, so the only synchronisation the runner needs is wait_idle().
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace flexnet {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue (runs every job already submitted) and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. Jobs must not throw; an escaping exception would
  /// terminate the worker thread (and the process).
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished and no worker is busy.
  void wait_idle();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Index of the calling thread within its pool: workers are 1..size(),
  /// any thread outside a pool (the serial path, main) is 0. Used to give
  /// trace spans a stable per-worker track; never used for scheduling.
  static int current_worker();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // signalled when a job arrives / stop
  std::condition_variable idle_cv_;  // signalled when a worker finishes
  int active_ = 0;
  bool stop_ = false;
};

}  // namespace flexnet
