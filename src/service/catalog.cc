#include "service/catalog.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"
#include "util/rng.h"

namespace bsio::service {

std::vector<wl::FileInfo> make_shared_catalog(const SharedCatalogConfig& cfg) {
  BSIO_CHECK(cfg.num_files > 0);
  BSIO_CHECK(cfg.num_storage_nodes > 0);
  BSIO_CHECK(cfg.mean_file_size_bytes > 0.0);
  BSIO_CHECK(cfg.file_size_jitter >= 0.0 && cfg.file_size_jitter < 1.0);
  Rng rng(cfg.seed);
  std::vector<wl::FileInfo> catalog(cfg.num_files);
  for (std::size_t i = 0; i < cfg.num_files; ++i) {
    wl::FileInfo& f = catalog[i];
    f.id = static_cast<wl::FileId>(i);
    const double jitter =
        cfg.file_size_jitter * (2.0 * rng.uniform_double() - 1.0);
    f.size_bytes = cfg.mean_file_size_bytes * (1.0 + jitter);
    f.home_storage_node = static_cast<wl::NodeId>(i % cfg.num_storage_nodes);
  }
  return catalog;
}

wl::Workload make_service_batch(const std::vector<wl::FileInfo>& catalog,
                                const ServiceBatchConfig& cfg,
                                std::uint64_t seed) {
  BSIO_CHECK(!catalog.empty());
  BSIO_CHECK(cfg.tasks_per_batch > 0);
  BSIO_CHECK(cfg.files_per_task > 0 && cfg.files_per_task <= catalog.size());
  BSIO_CHECK(cfg.write_fraction >= 0.0 && cfg.write_fraction <= 1.0);
  // Zipf-like rank draw: rank r (1-based) weighs r^-s. The cumulative
  // weights are summed once per batch, in rank order, and each draw takes
  // the first rank whose cumulative weight reaches u * total.
  std::vector<double> cum;
  if (cfg.zipf_s != 0.0) {
    cum.reserve(catalog.size());
    double acc = 0.0;
    for (std::size_t r = 1; r <= catalog.size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r), cfg.zipf_s);
      cum.push_back(acc);
    }
  }
  Rng rng(seed);
  const auto draw_rank = [&]() -> std::size_t {
    if (cum.empty()) return rng.uniform(catalog.size());
    const double u = rng.uniform_double() * cum.back();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cum.begin(), cum.end(), u) - cum.begin());
    return std::min(rank, cum.size() - 1);
  };
  std::vector<wl::TaskInfo> tasks(cfg.tasks_per_batch);
  for (std::size_t t = 0; t < cfg.tasks_per_batch; ++t) {
    wl::TaskInfo& task = tasks[t];
    task.id = static_cast<wl::TaskId>(t);
    // Distinct Zipf draws by rejection: the catalogue is much larger than a
    // task's file set, so repeats are rare even under heavy skew.
    std::unordered_set<wl::FileId> chosen;
    while (chosen.size() < cfg.files_per_task)
      chosen.insert(static_cast<wl::FileId>(draw_rank()));
    task.files.assign(chosen.begin(), chosen.end());
    std::sort(task.files.begin(), task.files.end());
    double bytes = 0.0;
    for (wl::FileId f : task.files) bytes += catalog[f].size_bytes;
    task.compute_seconds = bytes * cfg.compute_seconds_per_byte;
    // Write workload, gated: no rng state is consumed at write_fraction 0.
    if (cfg.write_fraction > 0.0 &&
        rng.uniform_double() < cfg.write_fraction) {
      const std::size_t k = std::min(
          task.files.size() - 1,
          static_cast<std::size_t>(rng.uniform_double() *
                                   static_cast<double>(task.files.size())));
      task.outputs.push_back(task.files[k]);
    }
  }
  return wl::Workload(std::move(tasks), catalog);
}

}  // namespace bsio::service
