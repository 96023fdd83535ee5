#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"

namespace bsio::wl {

Workload make_synthetic(const SyntheticConfig& cfg) {
  BSIO_CHECK(cfg.num_tasks > 0);
  BSIO_CHECK(cfg.files_per_task > 0);
  BSIO_CHECK(cfg.overlap >= 0.0 && cfg.overlap < 1.0);
  BSIO_CHECK(cfg.compute_jitter >= 0.0 && cfg.compute_jitter < 1.0);
  Rng rng(cfg.seed);

  const std::size_t total_requests = cfg.num_tasks * cfg.files_per_task;
  std::size_t pool = static_cast<std::size_t>(
      std::ceil(static_cast<double>(total_requests) * (1.0 - cfg.overlap)));
  pool = std::max(pool, cfg.files_per_task);

  std::vector<FileInfo> files(pool);
  for (std::size_t f = 0; f < pool; ++f) {
    double jitter =
        cfg.file_size_jitter > 0.0
            ? 1.0 + cfg.file_size_jitter * (rng.uniform_double() * 2.0 - 1.0)
            : 1.0;
    files[f].size_bytes = cfg.file_size_bytes * jitter;
    files[f].home_storage_node = static_cast<NodeId>(
        f % std::max<std::size_t>(1, cfg.num_storage_nodes));
  }

  // First deal every pool file out once (in random order) so the distinct
  // file count — and hence the measured overlap — matches the target
  // exactly; only the remaining requests sample randomly.
  std::vector<FileId> undealt(pool);
  for (std::size_t f = 0; f < pool; ++f) undealt[f] = static_cast<FileId>(f);
  rng.shuffle(undealt);
  std::size_t deal_cursor = 0;

  std::vector<TaskInfo> tasks(cfg.num_tasks);
  for (std::size_t t = 0; t < cfg.num_tasks; ++t) {
    // Spread the dealt files evenly over tasks.
    const std::size_t deal_end = (pool * (t + 1)) / cfg.num_tasks;
    std::unordered_set<FileId> chosen;
    while (chosen.size() < cfg.files_per_task && deal_cursor < deal_end)
      chosen.insert(undealt[deal_cursor++]);
    while (chosen.size() < cfg.files_per_task)
      chosen.insert(static_cast<FileId>(rng.uniform(pool)));
    tasks[t].files.assign(chosen.begin(), chosen.end());
    std::sort(tasks[t].files.begin(), tasks[t].files.end());
    double bytes = 0.0;
    for (FileId f : tasks[t].files) bytes += files[f].size_bytes;
    const double cj =
        cfg.compute_jitter > 0.0
            ? 1.0 + cfg.compute_jitter * (rng.uniform_double() * 2.0 - 1.0)
            : 1.0;
    tasks[t].compute_seconds = bytes * cfg.compute_seconds_per_byte * cj;
  }

  return Workload(std::move(tasks), std::move(files));
}

namespace {

// Metadata of universe file `uid`, derived by hashing — no catalogue lookup
// involved, so nothing is materialized before the draws.
FileInfo stream_file_info(const StreamingSyntheticConfig& cfg,
                          std::uint64_t uid) {
  FileInfo f;
  // Per-uid determinism: every attribute hashes off (seed, uid), so the
  // metadata of a file is identical no matter which tasks draw it or in
  // what order generation runs.
  const std::uint64_t h = hash_mix(cfg.seed ^ hash_mix(uid + 1));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double jitter = cfg.file_size_jitter > 0.0
                            ? 1.0 + cfg.file_size_jitter * (2.0 * u - 1.0)
                            : 1.0;
  f.size_bytes = cfg.file_size_bytes * jitter;
  f.home_storage_node = static_cast<NodeId>(
      uid % std::max<std::size_t>(1, cfg.num_storage_nodes));
  return f;
}

}  // namespace

Workload make_synthetic_streaming(const StreamingSyntheticConfig& cfg) {
  BSIO_CHECK(cfg.num_tasks > 0);
  BSIO_CHECK(cfg.files_per_task > 0);
  BSIO_CHECK(cfg.universe_files >= cfg.files_per_task);
  BSIO_CHECK(cfg.zipf_s >= 0.0);
  BSIO_CHECK(cfg.file_size_jitter >= 0.0 && cfg.file_size_jitter < 1.0);

  // Pass 1: draw every task's universe-id set. Per-task seeded generators
  // keep each task's draw independent of batch size and generation order.
  std::vector<std::vector<std::uint64_t>> task_uids(cfg.num_tasks);
  for (std::size_t t = 0; t < cfg.num_tasks; ++t) {
    Rng rng(hash_mix(cfg.seed ^ hash_mix(0x7a5cull + t)));
    std::vector<std::uint64_t>& uids = task_uids[t];
    uids.reserve(cfg.files_per_task);
    while (uids.size() < cfg.files_per_task) {
      const std::uint64_t uid = cfg.zipf_s > 0.0
                                    ? rng.zipf_stream(cfg.universe_files,
                                                      cfg.zipf_s)
                                    : rng.uniform(cfg.universe_files);
      // Rejection keeps the set distinct; file sets are tiny vs the
      // universe, so repeats are rare even under heavy skew.
      if (std::find(uids.begin(), uids.end(), uid) == uids.end())
        uids.push_back(uid);
    }
  }

  // Pass 2: dense remap of exactly the drawn universe ids, sorted so file
  // ids are assigned in universe order (stable across runs).
  std::vector<std::uint64_t> distinct;
  distinct.reserve(cfg.num_tasks * cfg.files_per_task);
  for (const auto& uids : task_uids)
    distinct.insert(distinct.end(), uids.begin(), uids.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  BSIO_CHECK_MSG(distinct.size() <=
                     static_cast<std::size_t>(kInvalidFile),
                 "drawn catalogue exceeds the 32-bit FileId space");

  std::vector<FileInfo> files(distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    files[i] = stream_file_info(cfg, distinct[i]);
    files[i].id = static_cast<FileId>(i);
  }

  std::vector<TaskInfo> tasks(cfg.num_tasks);
  for (std::size_t t = 0; t < cfg.num_tasks; ++t) {
    TaskInfo& task = tasks[t];
    task.id = static_cast<TaskId>(t);
    task.files.reserve(cfg.files_per_task);
    for (std::uint64_t uid : task_uids[t]) {
      const auto it =
          std::lower_bound(distinct.begin(), distinct.end(), uid);
      task.files.push_back(
          static_cast<FileId>(it - distinct.begin()));
    }
    std::sort(task.files.begin(), task.files.end());
    double bytes = 0.0;
    for (FileId f : task.files) bytes += files[f].size_bytes;
    task.compute_seconds = bytes * cfg.compute_seconds_per_byte;
    task_uids[t] = {};  // return memory as we go
  }

  return Workload(std::move(tasks), std::move(files));
}

}  // namespace bsio::wl
