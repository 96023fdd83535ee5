#include "util/ws_runtime.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <string>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "util/check.h"

namespace bsio {

namespace ws_internal {

Deque::Deque() {
  buffers_.push_back(std::make_unique<Buffer>(64));
  buffer_.store(buffers_.back().get(), std::memory_order_relaxed);
}

Deque::Buffer* Deque::grow(Buffer* old, std::int64_t top, std::int64_t bottom) {
  buffers_.push_back(std::make_unique<Buffer>(old->cap * 2));
  Buffer* fresh = buffers_.back().get();
  for (std::int64_t i = top; i < bottom; ++i) fresh->put(i, old->get(i));
  // The old buffer stays alive in buffers_: a thief that loaded it before
  // the swap may still read (stale but type-safe) entries; its CAS on top_
  // then fails and it retries against the new buffer.
  buffer_.store(fresh, std::memory_order_release);
  return fresh;
}

void Deque::push(Job* job) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  if (b - t > buf->cap - 1) buf = grow(buf, t, b);
  buf->put(b, job);
  // seq_cst publish: the new bottom must be ordered against the thief's
  // top/bottom reads (the paper uses a release fence; TSan models atomics,
  // not fences, so the index accesses carry the ordering themselves).
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

Job* Deque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  Job* job = nullptr;
  if (t <= b) {
    job = buf->get(b);
    if (t == b) {
      // Last element: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        job = nullptr;
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return job;
}

Job* Deque::steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;
  Buffer* buf = buffer_.load(std::memory_order_acquire);
  Job* job = buf->get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed))
    return nullptr;  // lost to the owner or another thief
  return job;
}

}  // namespace ws_internal

namespace {

using ws_internal::Job;

// The slot the current thread owns, if any. A thread belongs to at most
// one runtime at a time: background workers to theirs for life, an
// external caller to the one whose slot 0 it adopted for the duration of a
// top-level construct.
thread_local WsRuntime* tl_runtime = nullptr;
thread_local std::size_t tl_slot = 0;

std::unique_ptr<WsRuntime>& global_slot() {
  static std::unique_ptr<WsRuntime> rt;
  return rt;
}

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

// Per-slot CPU package ids from sysfs; empty when the topology is
// unreadable (non-Linux, masked sysfs) — callers fall back to one group.
std::vector<int> read_package_ids(std::size_t threads) {
  std::vector<int> ids;
  ids.reserve(threads);
  for (std::size_t cpu = 0; cpu < threads; ++cpu) {
    std::ifstream f("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                    "/topology/package_id");
    int id = -1;
    if (!(f >> id) || id < 0) return {};
    ids.push_back(id);
  }
  return ids;
}

void pin_to_cpu(std::size_t cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best-effort: a denied affinity call (containers) just loses locality.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

struct ForCtx {
  const std::function<void(std::size_t, std::size_t)>* body;
  std::size_t n = 0;
  std::size_t nc = 0;
};

void run_for_chunk(void* ctx, std::size_t c) {
  const auto* fc = static_cast<const ForCtx*>(ctx);
  // Static chunking: chunk c always covers the same contiguous range,
  // independent of which worker claims it.
  const std::size_t begin = c * fc->n / fc->nc;
  const std::size_t end = (c + 1) * fc->n / fc->nc;
  if (begin < end) (*fc->body)(begin, end);
}

}  // namespace

WsRuntime::WsRuntime(std::size_t threads, Options options)
    : options_(options) {
  if (threads == 0) threads = default_threads();
  if (threads == 0) threads = 1;

  std::vector<int> groups(threads, 0);
  bool pin = false;
  if (threads > 1) {
    const std::vector<int> packages = read_package_ids(threads);
    if (!packages.empty()) {
      // Dense group ids in first-seen order; pin only when there is more
      // than one package — on a single socket locality is free anyway.
      std::vector<int> seen;
      for (std::size_t i = 0; i < threads; ++i) {
        auto it = std::find(seen.begin(), seen.end(), packages[i]);
        if (it == seen.end()) {
          seen.push_back(packages[i]);
          it = seen.end() - 1;
        }
        groups[i] = static_cast<int>(it - seen.begin());
      }
      num_groups_ = seen.size();
      pin = num_groups_ > 1;
    }
  }

  slots_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->group = groups[i];
    slots_.back()->steal_seed = static_cast<unsigned>(i * 2654435761u + 1u);
  }

  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this, i, pin] {
      if (pin) pin_to_cpu(i);
      worker_main(i);
    });
}

WsRuntime::~WsRuntime() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  epoch_.fetch_add(1, std::memory_order_seq_cst);
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
  if (errno == ERANGE || v > 4096)
    return Err("BSIO_THREADS out of range (1..4096), got \"" + raw + "\"");
  if (v <= 0)
    return Err("BSIO_THREADS must be >= 1, got \"" + raw + "\"");
  return static_cast<std::size_t>(v);
}

Status WsRuntime::validate_env() {
  const Result<std::size_t> r = env_threads();
  if (!r.ok()) return r.error();
  return OkStatus();
}

std::size_t WsRuntime::default_threads() {
  const Result<std::size_t> r = env_threads();
  BSIO_CHECK_MSG(r.ok(), r.ok() ? "" : r.error().message.c_str());
  if (r.value() > 0) return r.value();
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
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

bool WsRuntime::adopt_caller_slot() {
  if (tl_runtime == this) return false;  // already a worker / adopted
  BSIO_CHECK_MSG(tl_runtime == nullptr,
                 "thread already owns a slot in another runtime");
  caller_mu_.lock();
  tl_runtime = this;
  tl_slot = 0;
  return true;
}

void WsRuntime::release_caller_slot() {
  tl_runtime = nullptr;
  caller_mu_.unlock();
}

Job* WsRuntime::find_job(std::size_t self) {
  Slot& s = *slots_[self];
  if (!options_.force_steal)
    if (Job* j = s.deque.pop()) return j;

  const std::size_t t = slots_.size();
  // Pseudo-random victim rotation; the determinism contract makes the
  // schedule invisible, so this only spreads contention.
  s.steal_seed = s.steal_seed * 1664525u + 1013904223u;
  const std::size_t start = s.steal_seed % t;
  const int passes = num_groups_ > 1 ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t k = 0; k < t; ++k) {
      const std::size_t v = (start + k) % t;
      if (v == self) continue;
      const bool same_group = slots_[v]->group == s.group;
      if ((pass == 0) != same_group) continue;  // near victims first
      if (Job* j = slots_[v]->deque.steal()) return j;
    }
  }
  if (options_.force_steal)
    if (Job* j = s.deque.pop()) return j;
  return nullptr;
}

void WsRuntime::run_job(Job* job) {
  job->fn(job->ctx, job->index);
  // Release pairs with the waiter's acquire load reaching zero, making the
  // job's writes visible to whoever observed its completion.
  job->pending->fetch_sub(1, std::memory_order_acq_rel);
}

void WsRuntime::help_until(const std::atomic<std::size_t>& pending) {
  const std::size_t self = tl_slot;
  while (pending.load(std::memory_order_acquire) != 0) {
    if (Job* j = find_job(self))
      run_job(j);
    else
      std::this_thread::yield();
  }
}

void WsRuntime::wake_workers() {
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    wake_.notify_all();
  }
}

void WsRuntime::worker_main(std::size_t slot) {
  tl_runtime = this;
  tl_slot = slot;
  constexpr int kSpinRounds = 64;
  int spins = 0;
  for (;;) {
    if (Job* j = find_job(slot)) {
      run_job(j);
      spins = 0;
      continue;
    }
    if (++spins < kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    spins = 0;
    std::unique_lock<std::mutex> lk(mu_);
    if (stop_) return;
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    lk.unlock();
    // Final sweep after snapshotting the epoch: a push between this check
    // and the wait bumps the epoch, so the wait predicate falls through.
    if (Job* j = find_job(slot)) {
      run_job(j);
      continue;
    }
    lk.lock();
    if (stop_) return;
    if (epoch_.load(std::memory_order_seq_cst) != e) continue;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    wake_.wait(lk, [&] {
      return stop_ || epoch_.load(std::memory_order_seq_cst) != e;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stop_) return;
  }
}

void WsRuntime::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  // A thread owning a slot in a *different* runtime cannot adopt one here;
  // degrade to inline rather than entangle two runtimes.
  const bool foreign = tl_runtime != nullptr && tl_runtime != this;
  if (num_threads() == 1 || n < 2 || foreign) {
    body(0, n);
    return;
  }
  ForCtx ctx;
  ctx.body = &body;
  ctx.n = n;
  // Mild over-decomposition smooths per-index cost variance while the
  // chunk boundaries stay a pure function of (n, num_threads).
  ctx.nc = std::min(n, num_threads() * 4);

  const bool external = adopt_caller_slot();
  std::atomic<std::size_t> pending{ctx.nc};
  std::vector<Job> jobs(ctx.nc);
  BSIO_DCHECK(tl_runtime == this);
  ws_internal::Deque& own = slots_[tl_slot]->deque;
  for (std::size_t c = 0; c < ctx.nc; ++c) {
    jobs[c] = Job{&run_for_chunk, &ctx, c, &pending};
    own.push(&jobs[c]);
  }
  wake_workers();
  help_until(pending);
  if (external) release_caller_slot();
}

}  // namespace bsio
