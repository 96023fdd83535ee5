// Wall-clock timer for measuring scheduling overhead (Fig 6b) and solver
// time limits.
#pragma once

#include <chrono>

namespace bsio {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace bsio
