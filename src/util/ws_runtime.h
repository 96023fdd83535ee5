// Deterministic fork-join pool for the parallel planners.
//
// A runtime of T threads owns T-1 background workers; the thread that calls
// parallel_for is the T-th, so a runtime of size 1 spawns no threads.
// parallel_for publishes one loop (body, n, chunk count, the unclaimed
// chunk range and a done counter); the caller claims chunks from the back,
// the workers from the front, until none are left, and the caller returns
// once every chunk is done. Concurrent external callers serialize: one
// top-level loop runs at a time. A parallel_for issued from inside a loop
// body (FM gain init in a bisection branch) runs inline on that thread.
// Idle workers spin briefly, then park until the next loop is published.
//
// Determinism contract: parallel_for splits [0, n) into min(n, 4 T)
// statically sized contiguous chunks — a pure function of (n, T), never of
// timing — each index is visited exactly once, and the body must write
// only to state owned by its index (slot i of a preallocated output
// array). Every ordering decision (argmin ties, heap pushes, reductions)
// is made by the caller in a sequential index-order pass over the slots.
// Which thread runs a chunk is therefore invisible, and plans are
// bit-identical at any thread count.
//
// The process-wide runtime (global()) is sized from BSIO_THREADS; see
// env_threads() and validate_env() for how a malformed value is reported.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.h"

namespace bsio {

class WsRuntime {
 public:
  // Largest thread count BSIO_THREADS or a bench's --threads list accepts.
  static constexpr std::size_t kMaxThreads = 4096;

  // `threads` counts the caller (<= 1: no background workers). 0 picks
  // BSIO_THREADS, else the hardware concurrency, and aborts if BSIO_THREADS
  // is invalid — call validate_env() first where a typed error is wanted.
  explicit WsRuntime(std::size_t threads = 0);
  ~WsRuntime();

  WsRuntime(const WsRuntime&) = delete;
  WsRuntime& operator=(const WsRuntime&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  // Invokes body(begin, end) over disjoint static sub-ranges covering
  // [0, n); see the determinism contract above. The body must not throw:
  // on the pool, an exception escaping it ends the program.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Per-index convenience wrapper around parallel_for.
  template <typename F>
  void parallel_for_each(std::size_t n, F&& f) {
    parallel_for(n, [&f](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) f(i);
    });
  }

  // BSIO_THREADS as a typed value: the thread count if set and valid, 0 if
  // unset, Error if set but malformed, zero, negative or over kMaxThreads.
  static Result<std::size_t> env_threads();
  // OkStatus() if BSIO_THREADS is unset or valid, else its parse Error;
  // entry points (run_batch, bench mains) check it before global().
  static Status validate_env();

  // Process-wide runtime used by the planners.
  static WsRuntime& global();

  // Recreates the global runtime with `threads` threads (0 = default).
  // Not safe while a parallel_for is in flight on the old runtime.
  static void set_global_threads(std::size_t threads);

 private:
  struct Loop;

  void run_chunks(Loop& loop, bool from_back) noexcept;
  void worker_main();

  std::mutex caller_mu_;  // serializes top-level parallel_for calls

  // The published loop, or nullptr between loops. A worker counts itself
  // in busy_ before loading it, so the caller, after clearing it, waits
  // for busy_ to drain before its stack-held Loop goes away.
  std::atomic<Loop*> loop_{nullptr};
  std::atomic<std::size_t> busy_{0};

  std::mutex mu_;                 // parking lot
  std::condition_variable wake_;  // workers wait for epoch_ to move
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> sleepers_{0};
  bool stop_ = false;  // guarded by mu_

  std::vector<std::thread> workers_;
};

}  // namespace bsio
