// RAPID_UNDER_TSAN: 1 in a ThreadSanitizer build. TSan's runtime does not
// support the fork()-based shm transport (children deadlock in the TSan
// allocator), so tests skip their shm inputs under it; the CI shm lane runs
// them under Release and ASan instead.
#pragma once

#include <gtest/gtest.h>

#if defined(__SANITIZE_THREAD__)
#define RAPID_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RAPID_UNDER_TSAN 1
#endif
#endif
#ifndef RAPID_UNDER_TSAN
#define RAPID_UNDER_TSAN 0
#endif

#define RAPID_SKIP_UNDER_TSAN()                                          \
  do {                                                                   \
    if (RAPID_UNDER_TSAN) {                                              \
      GTEST_SKIP() << "fork-based shm tests are incompatible with TSan"; \
    }                                                                    \
  } while (0)
