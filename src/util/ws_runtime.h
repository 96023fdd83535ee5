// Work-stealing runtime for the parallel planners.
//
// Architecture: T worker slots, each owning a Chase-Lev deque (LIFO local
// pop, FIFO steal). Slots 1..T-1 are background threads; slot 0 is adopted
// by the external caller for the duration of a top-level parallel_for
// (concurrent external callers serialize on an internal mutex), so a
// runtime of size 1 spawns no threads and runs everything inline. A
// parallel_for issued from inside a job (FM refinement inside a bisection
// branch) pushes its chunks to the current worker's own deque and helps
// until they drain; jobs never block, so helping cannot deadlock. Idle
// workers spin over the victim list a few rounds, then park on a condvar;
// any push bumps an epoch and wakes them.
//
// Packages: when the host exposes multiple CPU packages (sysfs
// package_id), workers are pinned one-per-CPU, slots are tagged with their
// package, and steals prefer same-package victims. On a single-socket host
// (the common case) everything collapses to one group and no pinning.
//
// Determinism contract (enforced across arbitrary steal interleavings):
// parallel_for splits [0, n) into statically sized contiguous chunks — a
// pure function of (n, num_threads), never of timing — each index is
// visited exactly once, and the body must write only to state owned by its
// index (slot i of a preallocated output array). Every ordering decision
// (argmin ties, heap pushes, reductions) is made by the caller in a
// sequential index-order pass over the slots. Under this contract plans are
// bit-identical at any thread count and any steal schedule; `force_steal`
// inverts the local-pop preference to let tests drive maximally
// adversarial schedules through the same contract.
//
// The process-wide runtime (WsRuntime::global()) is sized from the
// BSIO_THREADS environment variable. Malformed, zero, or negative values
// are a typed bsio::Error: validate_env()/env_threads() surface it to
// callers that can report it (run_batch, bench mains); constructing a
// runtime with the variable malformed is an internal invariant violation
// and aborts with the same message.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.h"

namespace bsio {

namespace ws_internal {

// A unit of work: fn(ctx, index) plus the counter it completes against.
// Jobs live in the issuing parallel_for's chunk array; the runtime only
// moves Job pointers.
struct Job {
  void (*fn)(void* ctx, std::size_t index) = nullptr;
  void* ctx = nullptr;
  std::size_t index = 0;
  std::atomic<std::size_t>* pending = nullptr;  // decremented after fn runs
};

// Chase-Lev work-stealing deque of Job pointers (Chase & Lev 2005, in the
// C11-atomics formulation of Lê et al. 2013). The owner pushes and pops at
// the bottom (LIFO); thieves steal from the top (FIFO). Deviations from the
// paper: the fence-sensitive index operations use seq_cst accesses instead
// of standalone fences (ThreadSanitizer models atomics, not fences), and
// grown buffers are retired to an owner-held list instead of freed, since
// a thief may still be reading the old array.
class Deque {
 public:
  Deque();
  ~Deque() = default;

  Deque(const Deque&) = delete;
  Deque& operator=(const Deque&) = delete;

  void push(Job* job);  // owner only
  Job* pop();           // owner only; nullptr when empty
  Job* steal();         // any thief; nullptr when empty or a race lost

 private:
  struct Buffer {
    explicit Buffer(std::int64_t capacity)
        : cap(capacity), mask(capacity - 1), arr(new std::atomic<Job*>[cap]) {}
    Job* get(std::int64_t i) const {
      return arr[i & mask].load(std::memory_order_relaxed);
    }
    void put(std::int64_t i, Job* j) {
      arr[i & mask].store(j, std::memory_order_relaxed);
    }
    const std::int64_t cap;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<Job*>[]> arr;
  };

  Buffer* grow(Buffer* old, std::int64_t top, std::int64_t bottom);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_{nullptr};
  std::vector<std::unique_ptr<Buffer>> buffers_;  // current + retired
};

}  // namespace ws_internal

class WsRuntime {
 public:
  struct Options {
    // Tests only: prefer stealing from other workers over popping the own
    // deque, driving the most adversarial schedule the determinism
    // contract must survive.
    bool force_steal = false;
  };

  // `threads` counts the caller: threads <= 1 means no background workers.
  // 0 picks default_threads() (aborts if BSIO_THREADS is set but invalid —
  // validate_env() first on paths that want the typed error).
  explicit WsRuntime(std::size_t threads = 0) : WsRuntime(threads, Options{}) {}
  WsRuntime(std::size_t threads, Options options);
  ~WsRuntime();

  WsRuntime(const WsRuntime&) = delete;
  WsRuntime& operator=(const WsRuntime&) = delete;

  std::size_t num_threads() const { return slots_.size(); }
  // Distinct CPU packages the workers were placed into (1 on single-socket
  // hosts).
  std::size_t num_groups() const { return num_groups_; }

  // Invokes body(begin, end) over disjoint static sub-ranges covering
  // [0, n); see the determinism contract above.
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
  // unset, Error if set but malformed / zero / negative / out of range.
  static Result<std::size_t> env_threads();
  // OkStatus() when BSIO_THREADS is unset or valid; the parse Error
  // otherwise. Entry points (run_batch, bench mains) call this before the
  // first global() touch so users get an error message, not an abort.
  static Status validate_env();

  // BSIO_THREADS if set (aborts when invalid), else hardware concurrency.
  static std::size_t default_threads();

  // Process-wide runtime used by the planners.
  static WsRuntime& global();

  // Recreates the global runtime with `threads` threads (0 = default).
  // Not safe while a parallel_for is in flight on the old runtime.
  static void set_global_threads(std::size_t threads);

 private:
  struct Slot {
    ws_internal::Deque deque;
    int group = 0;
    unsigned steal_seed = 0;  // per-slot xorshift state for victim order
  };

  // One attempt to find runnable work for slot `self`: its own deque, then
  // steals, same-package victims first (own deque last under force_steal).
  ws_internal::Job* find_job(std::size_t self);
  void run_job(ws_internal::Job* job);
  // Helps until *pending drops to zero, running any runtime work found.
  void help_until(const std::atomic<std::size_t>& pending);
  void worker_main(std::size_t slot);
  void wake_workers();

  // Adopt / release worker slot 0 for an external calling thread.
  bool adopt_caller_slot();
  void release_caller_slot();

  Options options_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> workers_;
  std::size_t num_groups_ = 1;

  std::mutex caller_mu_;  // serializes external top-level callers (slot 0)

  std::mutex mu_;                 // parking lot
  std::condition_variable wake_;  // workers wait for epoch_ to move
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> sleepers_{0};
  bool stop_ = false;  // guarded by mu_
};

}  // namespace bsio
