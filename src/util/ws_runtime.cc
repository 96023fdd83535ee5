#include "util/ws_runtime.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/check.h"

namespace bsio {

struct WsRuntime::Loop {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunks = 0;
  // The unclaimed chunks [front, back), packed as front | back << 32.
  std::atomic<std::uint64_t> unclaimed{0};
  std::atomic<std::size_t> done{0};  // chunks finished

  // Claims a chunk, the caller from the back and the workers from the front,
  // so each thread keeps one contiguous stretch of indices (and of the data
  // they touch) from loop to loop. Returns `chunks` when none is left.
  std::size_t claim(bool from_back) {
    std::uint64_t v = unclaimed.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t front = v & 0xffffffffu, back = v >> 32;
      if (front >= back) return chunks;
      const std::uint64_t rest = from_back ? v - (1ull << 32) : v + 1;
      if (unclaimed.compare_exchange_weak(v, rest, std::memory_order_relaxed))
        return from_back ? back - 1 : front;
    }
  }
};

namespace {

// True while this thread runs a chunk: a parallel_for issued from there
// runs inline instead of publishing a second loop.
thread_local bool tl_in_body = false;

std::unique_ptr<WsRuntime>& global_slot() {
  static std::unique_ptr<WsRuntime> rt;
  return rt;
}

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

// BSIO_THREADS if set (aborts when invalid), else hardware concurrency.
std::size_t default_threads() {
  const Result<std::size_t> r = WsRuntime::env_threads();
  BSIO_CHECK_MSG(r.ok(), r.ok() ? "" : r.error().message.c_str());
  if (r.value() > 0) return r.value();
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

WsRuntime::WsRuntime(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  BSIO_CHECK_MSG(threads <= kMaxThreads, "WsRuntime: too many threads");
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

WsRuntime::~WsRuntime() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

Result<std::size_t> WsRuntime::env_threads() {
  const char* env = std::getenv("BSIO_THREADS");
  if (env == nullptr) return std::size_t{0};
  const std::string raw(env);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0')
    return Err("BSIO_THREADS must be a positive integer, got \"" + raw + "\"");
  if (errno == ERANGE || v > static_cast<long>(kMaxThreads))
    return Err("BSIO_THREADS out of range (1.." + std::to_string(kMaxThreads) +
               "), got \"" + raw + "\"");
  if (v <= 0)
    return Err("BSIO_THREADS must be >= 1, got \"" + raw + "\"");
  return static_cast<std::size_t>(v);
}

Status WsRuntime::validate_env() {
  const Result<std::size_t> r = env_threads();
  if (!r.ok()) return r.error();
  return OkStatus();
}

WsRuntime& WsRuntime::global() {
  std::lock_guard<std::mutex> lk(global_mu());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<WsRuntime>();
  return *slot;
}

void WsRuntime::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lk(global_mu());
  auto& slot = global_slot();
  slot.reset();  // join the old workers before replacing them
  slot = std::make_unique<WsRuntime>(threads);
}

void WsRuntime::run_chunks(Loop& loop, bool from_back) noexcept {
  tl_in_body = true;
  for (;;) {
    const std::size_t c = loop.claim(from_back);
    if (c == loop.chunks) break;
    // Chunk c covers the same contiguous range whichever thread claims it.
    (*loop.body)(c * loop.n / loop.chunks, (c + 1) * loop.n / loop.chunks);
    // Release: the caller's acquire load of `done` sees the chunk's writes.
    loop.done.fetch_add(1, std::memory_order_release);
  }
  tl_in_body = false;
}

void WsRuntime::worker_main() {
  constexpr int kSpinRounds = 128;
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    for (int spin = 0; e == seen && spin < kSpinRounds; ++spin) {
      std::this_thread::yield();
      e = epoch_.load(std::memory_order_seq_cst);
    }
    if (e == seen) {
      std::unique_lock<std::mutex> lk(mu_);
      // Counted before the predicate reads the epoch, so a publisher that
      // bumps it later sees the sleeper and notifies under mu_.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      wake_.wait(lk, [&] {
        e = epoch_.load(std::memory_order_seq_cst);
        return stop_ || e != seen;
      });
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      if (stop_) return;
    }
    seen = e;
    // busy_ before loop_: if this load still sees the loop, the caller's
    // later busy_ read sees this thread and waits for it to leave.
    busy_.fetch_add(1, std::memory_order_seq_cst);
    if (Loop* loop = loop_.load(std::memory_order_seq_cst))
      run_chunks(*loop, /*from_back=*/false);
    busy_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void WsRuntime::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  // One index runs inline without marking this thread as in a body, so its
  // nested loops (FM under a lone bisection branch) still fan out.
  if (n < 2 || workers_.empty() || tl_in_body) {
    if (n > 0) body(0, n);
    return;
  }
  std::lock_guard<std::mutex> caller(caller_mu_);
  Loop loop;
  loop.body = &body;
  loop.n = n;
  // Mild over-decomposition smooths per-index cost variance while the
  // chunk boundaries stay a pure function of (n, num_threads).
  loop.chunks = std::min(n, num_threads() * 4);
  loop.unclaimed.store(std::uint64_t{loop.chunks} << 32,
                       std::memory_order_relaxed);

  loop_.store(&loop, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    wake_.notify_all();
  }
  run_chunks(loop, /*from_back=*/true);
  while (loop.done.load(std::memory_order_acquire) != loop.chunks)
    std::this_thread::yield();
  loop_.store(nullptr, std::memory_order_seq_cst);
  while (busy_.load(std::memory_order_seq_cst) != 0) std::this_thread::yield();
}

}  // namespace bsio
