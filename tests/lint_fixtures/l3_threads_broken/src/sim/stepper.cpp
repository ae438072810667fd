// Lint fixture (L3, violating): a thread primitive in a simulation-core TU
// (anywhere under src/sim/).
#include <mutex>

namespace flexnet {

struct Stepper {
  std::mutex mu;
  long count = 0;

  void bump() {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
  }
};

}  // namespace flexnet
