#include "runner/thread_pool.hpp"

#include <algorithm>

namespace flexnet {

namespace {
thread_local int t_worker_index = 0;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] {
      t_worker_index = i + 1;
      worker_loop();
    });
}

int ThreadPool::current_worker() { return t_worker_index; }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain remaining jobs even when stopping so ~ThreadPool keeps the
      // "every submitted job runs" contract.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace flexnet
