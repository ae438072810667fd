// Internal invariant checking.
//
// FLEXNET_CHECK is always on (configuration and wiring errors must never be
// silent); FLEXNET_DCHECK compiles out in release builds and guards the
// hot-path invariants exercised on every cycle.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace flexnet::detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "flexnet CHECK failed: %s at %s:%d%s%s\n", expr, file,
               line, msg[0] ? " — " : "", msg);
  std::abort();
}

}  // namespace flexnet::detail

// The file's name alone, so a build does not depend on where its checkout
// sits (a full path shifts the code layout).
#ifdef __FILE_NAME__
#define FLEXNET_CHECK_FILE __FILE_NAME__
#else
#define FLEXNET_CHECK_FILE __FILE__
#endif

#define FLEXNET_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond))                                                         \
      ::flexnet::detail::check_failed(#cond, FLEXNET_CHECK_FILE,         \
                                      __LINE__, "");                     \
  } while (0)

#define FLEXNET_CHECK_MSG(cond, msg)                                     \
  do {                                                                   \
    if (!(cond))                                                         \
      ::flexnet::detail::check_failed(#cond, FLEXNET_CHECK_FILE,         \
                                      __LINE__, (msg));                  \
  } while (0)

#ifdef NDEBUG
#define FLEXNET_DCHECK(cond) \
  do {                       \
  } while (0)
#else
#define FLEXNET_DCHECK(cond) FLEXNET_CHECK(cond)
#endif
