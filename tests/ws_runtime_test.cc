// Tests for the work-stealing runtime: coverage under adversarial steal
// schedules, randomized nested parallel_for trees, and BSIO_THREADS
// parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/ws_runtime.h"

namespace bsio {
namespace {

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
    for (bool force_steal : {false, true}) {
      WsRuntime::Options o;
      o.force_steal = force_steal;
      WsRuntime rt(threads, o);
      for (int round = 0; round < 8; ++round) {
        const int roots = 1 + static_cast<int>(rng.uniform(8));
        const int depth = static_cast<int>(rng.uniform(4));
        const int fanout = 2 + static_cast<int>(rng.uniform(3));
        std::atomic<long> count{0};
        rt.parallel_for_each(static_cast<std::size_t>(roots),
                             [&](std::size_t) {
                               stress_node(rt, count, depth, fanout);
                             });
        EXPECT_EQ(count.load(), expected_runs(roots, depth, fanout))
            << "threads=" << threads << " steal=" << force_steal
            << " round=" << round;
      }
    }
  }
}

TEST(WsRuntimeStress, ParallelForInsideSpawnedJobs) {
  // A parallel_for issued from inside a worker must nest (push to the
  // worker's own deque and help), not deadlock or double-run indices.
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

TEST(WsRuntime, ForceStealCoversEveryIndexOnce) {
  WsRuntime::Options o;
  o.force_steal = true;
  WsRuntime rt(4, o);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  rt.parallel_for_each(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << i;
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
