#include <gtest/gtest.h>

#include <cmath>

#include <set>

#include "workload/calibrate.h"
#include "workload/image.h"
#include "workload/sat.h"
#include "workload/stats.h"
#include "workload/synthetic.h"
#include "workload/types.h"

namespace bsio::wl {
namespace {

TEST(Workload, NormalisesAndIndexes) {
  std::vector<FileInfo> files(4);  // file 3 is in the catalogue, read by none
  for (auto& f : files) f.size_bytes = 10.0;
  std::vector<TaskInfo> tasks(2);
  tasks[0].files = {2, 0, 2};  // duplicate + unsorted
  tasks[1].files = {1};
  Workload w(std::move(tasks), std::move(files));
  EXPECT_EQ(w.task(0).files, (std::vector<FileId>{0, 2}));
  EXPECT_DOUBLE_EQ(w.unique_request_bytes(), 30.0);
  EXPECT_EQ(measure(w).num_requested_files, 3u);
}

TEST(Synthetic, HitsTargetOverlapClosely) {
  for (double target : {0.1, 0.4, 0.85}) {
    SyntheticConfig cfg;
    cfg.num_tasks = 100;
    cfg.files_per_task = 8;
    cfg.overlap = target;
    Workload w = make_synthetic(cfg);
    // Pool size fixes the maximum achievable distinct count; sampling with
    // high overlap hits nearly every pool file, so measured overlap is close.
    EXPECT_NEAR(overlap_fraction(w), target, 0.08) << "target " << target;
  }
}

TEST(Synthetic, DeterministicInSeed) {
  SyntheticConfig cfg;
  cfg.seed = 99;
  Workload a = make_synthetic(cfg);
  Workload b = make_synthetic(cfg);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t t = 0; t < a.num_tasks(); ++t)
    EXPECT_EQ(a.task(t).files, b.task(t).files);
}

TEST(Synthetic, ComputeTimeTracksInputVolume) {
  SyntheticConfig cfg;
  cfg.num_tasks = 10;
  Workload w = make_synthetic(cfg);
  for (const auto& t : w.tasks()) {
    double bytes = 0.0;
    for (FileId f : t.files) bytes += w.file_size(f);
    EXPECT_NEAR(t.compute_seconds, bytes * cfg.compute_seconds_per_byte,
                1e-9);
  }
}

TEST(Synthetic, ComputeJitterSpreadsAroundTheProportionalValue) {
  SyntheticConfig cfg;
  cfg.num_tasks = 50;
  cfg.compute_jitter = 0.4;
  cfg.seed = 7;
  Workload w = make_synthetic(cfg);
  bool any_off = false;
  for (const auto& t : w.tasks()) {
    double bytes = 0.0;
    for (FileId f : t.files) bytes += w.file_size(f);
    const double base = bytes * cfg.compute_seconds_per_byte;
    EXPECT_GE(t.compute_seconds, base * (1.0 - cfg.compute_jitter) - 1e-12);
    EXPECT_LE(t.compute_seconds, base * (1.0 + cfg.compute_jitter) + 1e-12);
    if (std::abs(t.compute_seconds - base) > 1e-9 * base) any_off = true;
  }
  EXPECT_TRUE(any_off);  // the knob actually does something
}

TEST(Sat, StructureMatchesPaperSetup) {
  SatConfig cfg;  // 20 days x 8x8 grid of 50 MB chunks
  Workload w = make_sat(cfg, 0.3);
  EXPECT_EQ(w.num_files(), 20u * 64u);
  for (const auto& f : w.files()) {
    EXPECT_DOUBLE_EQ(f.size_bytes, 50.0 * 1024 * 1024);
    EXPECT_LT(f.home_storage_node, 4u);
  }
  EXPECT_EQ(w.num_tasks(), 100u);
  WorkloadStats s = measure(w);
  // 2x2 window x ~2 days: files per task near the configured average.
  EXPECT_GT(s.avg_files_per_task, 4.0);
  EXPECT_LT(s.avg_files_per_task, 12.0);
}

TEST(Sat, DeclusteringSpreadsFilesOverStorageNodes) {
  SatConfig cfg;
  Workload w = make_sat(cfg, 0.0);
  std::set<NodeId> nodes;
  for (const auto& f : w.files()) nodes.insert(f.home_storage_node);
  EXPECT_EQ(nodes.size(), 4u);
  // A single task's files should hit multiple storage nodes (declustering).
  std::set<NodeId> task_nodes;
  for (FileId f : w.task(0).files)
    task_nodes.insert(w.file(f).home_storage_node);
  EXPECT_GT(task_nodes.size(), 1u);
}

TEST(Sat, SpreadReducesOverlapMonotonically) {
  SatConfig cfg;
  double prev = 2.0;
  for (double spread : {0.0, 0.5, 1.0}) {
    double ov = overlap_fraction(make_sat(cfg, spread));
    EXPECT_LE(ov, prev + 0.05) << "spread " << spread;
    prev = ov;
  }
}

TEST(Sat, CalibrationHitsPaperTargets) {
  SatConfig cfg;
  for (double target : {0.85, 0.40, 0.10}) {
    if (target < 0.5) cfg.files_per_task = 14.0;  // paper's med/low setting
    auto r = make_sat_calibrated(cfg, target);
    EXPECT_NEAR(r.achieved_overlap, target, 0.06) << "target " << target;
  }
}

TEST(Image, DatasetShapeMatchesPaper) {
  ImageConfig cfg;  // 2000 patients x 4 studies x (2 CT + 32 MRI)
  Workload w = make_image(cfg, 0.5);
  EXPECT_EQ(w.num_files(), 2000u * 4u * 34u);
  double total = 0.0;
  for (const auto& f : w.files()) total += f.size_bytes;
  // ~2 TB dataset.
  EXPECT_NEAR(total / (1024.0 * 1024 * 1024 * 1024), 2.0, 0.3);
  WorkloadStats s = measure(w);
  EXPECT_DOUBLE_EQ(s.avg_files_per_task, 8.0);  // 2 CT + 6 MRI
}

TEST(Image, ZeroOverlapAtFullSpread) {
  ImageConfig cfg;
  cfg.num_tasks = 50;
  Workload w = make_image(cfg, 1.0);
  EXPECT_DOUBLE_EQ(overlap_fraction(w), 0.0);
}

TEST(Image, CalibrationHitsPaperTargets) {
  ImageConfig cfg;
  for (double target : {0.85, 0.40, 0.0}) {
    auto r = make_image_calibrated(cfg, target);
    EXPECT_NEAR(r.achieved_overlap, target, 0.06) << "target " << target;
  }
}

TEST(Image, RoundRobinPlacement) {
  ImageConfig cfg;
  Workload w = make_image(cfg, 0.5);
  for (std::size_t id = 0; id < 100; ++id)
    EXPECT_EQ(w.file(static_cast<FileId>(id)).home_storage_node, id % 4);
}

TEST(Stats, OverlapDefinition) {
  // 2 tasks sharing both files: 4 requests, 2 distinct -> overlap 0.5.
  std::vector<FileInfo> files(2);
  for (auto& f : files) f.size_bytes = 1.0;
  std::vector<TaskInfo> tasks(2);
  tasks[0].files = {0, 1};
  tasks[1].files = {0, 1};
  Workload w(std::move(tasks), std::move(files));
  EXPECT_DOUBLE_EQ(overlap_fraction(w), 0.5);
}

}  // namespace
}  // namespace bsio::wl
