// Tests for the fork-join runtime: index coverage, inline and nested
// loops, concurrent external callers, randomized nested parallel_for
// trees, and BSIO_THREADS parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/ws_runtime.h"

namespace bsio {
namespace {

// ------------------------------------------------------------ parallel_for

TEST(WsRuntime, CoversEveryIndexExactlyOnce) {
  WsRuntime pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (std::size_t n : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.parallel_for_each(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(WsRuntime, SingleWsRuntimeRunsInline) {
  WsRuntime pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> out(100, 0);
  pool.parallel_for_each(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) * 3;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(WsRuntime, NestedParallelForDegradesToInline) {
  WsRuntime pool(4);
  const std::size_t n = 32, m = 16;
  std::vector<int> out(n * m, 0);
  pool.parallel_for_each(n, [&](std::size_t i) {
    pool.parallel_for_each(m, [&](std::size_t j) {
      out[i * m + j] = static_cast<int>(i * m + j);
    });
  });
  for (std::size_t k = 0; k < n * m; ++k)
    EXPECT_EQ(out[k], static_cast<int>(k));
}

TEST(WsRuntime, NestedLoopRunsOnTheCallingThread) {
  WsRuntime pool(4);
  const std::size_t n = 16, m = 32;
  std::vector<std::thread::id> outer(n), inner(n * m);
  pool.parallel_for_each(n, [&](std::size_t i) {
    outer[i] = std::this_thread::get_id();
    pool.parallel_for_each(m, [&](std::size_t j) {
      inner[i * m + j] = std::this_thread::get_id();
    });
  });
  for (std::size_t k = 0; k < n * m; ++k)
    EXPECT_EQ(inner[k], outer[k / m]) << k;
}

// A loop of one index runs inline without counting as a loop body, so a
// loop nested under it still fans out: both of its chunks must be in
// flight at once. Run serially, the first chunk waits out the deadline
// and leaves before the second enters.
TEST(WsRuntime, OneIndexLoopLeavesNestedLoopsParallel) {
  WsRuntime pool(2);
  std::atomic<int> entered{0}, left{0};
  std::atomic<bool> overlapped{false};
  pool.parallel_for_each(1, [&](std::size_t) {
    pool.parallel_for_each(2, [&](std::size_t) {
      entered.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (entered.load() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      if (entered.load() == 2 && left.load() == 0) overlapped = true;
      left.fetch_add(1);
    });
  });
  EXPECT_TRUE(overlapped.load());
}

TEST(WsRuntime, ReusableAcrossManyLoops) {
  WsRuntime pool(3);
  std::vector<std::size_t> acc(64, 0);
  for (int round = 0; round < 200; ++round)
    pool.parallel_for_each(acc.size(), [&](std::size_t i) { ++acc[i]; });
  for (std::size_t v : acc) EXPECT_EQ(v, 200u);
}

TEST(WsRuntime, ConcurrentExternalCallers) {
  WsRuntime pool(4);
  constexpr int kLoops = 1000;
  constexpr std::size_t kN = 64;
  auto issue = [&](std::vector<int>& hits) {
    for (int loop = 0; loop < kLoops; ++loop)
      pool.parallel_for_each(kN, [&](std::size_t i) { ++hits[loop * kN + i]; });
  };
  std::vector<int> a(kLoops * kN, 0), b(kLoops * kN, 0);
  std::thread ta(issue, std::ref(a)), tb(issue, std::ref(b));
  ta.join();
  tb.join();
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], 1) << k;
    EXPECT_EQ(b[k], 1) << k;
  }
}

// ------------------------------------------------------- nested trees

// One node of a stress tree: counts its own run, then fans out into a
// nested parallel_for_each over its children until the depth is spent.
void stress_node(WsRuntime& rt, std::atomic<long>& count, int depth,
                 int fanout) {
  count.fetch_add(1, std::memory_order_relaxed);
  if (depth == 0) return;
  rt.parallel_for_each(static_cast<std::size_t>(fanout), [&](std::size_t) {
    stress_node(rt, count, depth - 1, fanout);
  });
}

// Total runs of a (roots x depth x fanout) stress forest: every node runs
// once, each non-leaf has `fanout` children.
long expected_runs(int roots, int depth, int fanout) {
  long per_root = 0, level = 1;
  for (int d = 0; d <= depth; ++d) {
    per_root += level;
    level *= fanout;
  }
  return roots * per_root;
}

TEST(WsRuntimeStress, RandomizedNestedTaskGraphs) {
  Rng rng(20240808);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    WsRuntime rt(threads);
    for (int round = 0; round < 8; ++round) {
      const int roots = 1 + static_cast<int>(rng.uniform(8));
      const int depth = static_cast<int>(rng.uniform(4));
      const int fanout = 2 + static_cast<int>(rng.uniform(3));
      std::atomic<long> count{0};
      rt.parallel_for_each(static_cast<std::size_t>(roots), [&](std::size_t) {
        stress_node(rt, count, depth, fanout);
      });
      EXPECT_EQ(count.load(), expected_runs(roots, depth, fanout))
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(WsRuntimeStress, ParallelForInsideSpawnedJobs) {
  // A parallel_for issued from inside a loop body must run inline on that
  // thread, not deadlock or double-run indices.
  WsRuntime rt(4);
  const std::size_t n = 64, m = 128;
  std::vector<std::atomic<int>> hits(n * m);
  for (auto& h : hits) h = 0;
  rt.parallel_for_each(n, [&](std::size_t i) {
    rt.parallel_for_each(m, [&](std::size_t j) {
      hits[i * m + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t k = 0; k < n * m; ++k) EXPECT_EQ(hits[k].load(), 1) << k;
}

// ------------------------------------------------------------ BSIO_THREADS

class EnvThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("BSIO_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  void TearDown() override {
    if (had_)
      setenv("BSIO_THREADS", saved_.c_str(), 1);
    else
      unsetenv("BSIO_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST_F(EnvThreadsTest, UnsetIsZeroAndValid) {
  unsetenv("BSIO_THREADS");
  const auto r = WsRuntime::env_threads();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u);
  EXPECT_TRUE(WsRuntime::validate_env().ok());
}

TEST_F(EnvThreadsTest, ValidValueParses) {
  setenv("BSIO_THREADS", "4", 1);
  const auto r = WsRuntime::env_threads();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4u);
  EXPECT_TRUE(WsRuntime::validate_env().ok());
}

// kMaxThreads is the largest valid value; one more is a typed error. Only
// the parser runs: no runtime of that size is built.
TEST_F(EnvThreadsTest, CapIsTheLargestValidValue) {
  setenv("BSIO_THREADS", "4096", 1);
  const auto r = WsRuntime::env_threads();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), WsRuntime::kMaxThreads);
  setenv("BSIO_THREADS", "4097", 1);
  const Status s = WsRuntime::validate_env();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("out of range"), std::string::npos);
}

TEST_F(EnvThreadsTest, MalformedZeroNegativeAndHugeAreTypedErrors) {
  for (const char* bad : {"abc", "4x", "", "0", "-3", "99999999999999"}) {
    setenv("BSIO_THREADS", bad, 1);
    EXPECT_FALSE(WsRuntime::env_threads().ok()) << "value: " << bad;
    const Status s = WsRuntime::validate_env();
    ASSERT_FALSE(s.ok()) << "value: " << bad;
    EXPECT_NE(s.error().message.find("BSIO_THREADS"), std::string::npos)
        << "value: " << bad;
  }
}

}  // namespace
}  // namespace bsio
