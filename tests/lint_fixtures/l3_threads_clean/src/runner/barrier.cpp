// Lint fixture (L3, clean): the same thread primitives are fine outside
// the simulation core — src/runner/ runs sweep jobs on worker threads.
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace flexnet {

struct Barrier {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread> workers;
  int pending = 0;

  void arrive() {
    std::lock_guard<std::mutex> lock(mu);
    if (--pending == 0) cv.notify_all();
  }
};

}  // namespace flexnet
