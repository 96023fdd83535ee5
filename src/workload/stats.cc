#include "workload/stats.h"

#include <vector>

namespace bsio::wl {

WorkloadStats measure(const Workload& w) {
  WorkloadStats s;
  s.num_tasks = w.num_tasks();
  // Readers per file, for the sharing degree.
  std::vector<std::size_t> degree(w.num_files(), 0);
  for (const auto& t : w.tasks()) {
    s.total_requests += t.files.size();
    s.total_compute_seconds += t.compute_seconds;
    for (FileId f : t.files) {
      s.total_request_bytes += w.file_size(f);
      ++degree[f];
    }
  }
  std::size_t sharing_sum = 0;
  for (const auto& f : w.files()) {
    const std::size_t deg = degree[f.id];
    if (deg == 0) continue;
    ++s.num_requested_files;
    sharing_sum += deg;
    s.unique_bytes += f.size_bytes;
  }
  if (s.total_requests > 0)
    s.overlap = 1.0 - static_cast<double>(s.num_requested_files) /
                          static_cast<double>(s.total_requests);
  if (s.num_tasks > 0)
    s.avg_files_per_task = static_cast<double>(s.total_requests) /
                           static_cast<double>(s.num_tasks);
  if (s.num_requested_files > 0)
    s.avg_sharing_degree = static_cast<double>(sharing_sum) /
                           static_cast<double>(s.num_requested_files);
  return s;
}

double overlap_fraction(const Workload& w) { return measure(w).overlap; }

}  // namespace bsio::wl
