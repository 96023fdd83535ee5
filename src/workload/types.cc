#include "workload/types.h"

#include <algorithm>

#include "util/check.h"
#include "workload/stats.h"

namespace bsio::wl {

Workload::Workload(std::vector<TaskInfo> tasks, std::vector<FileInfo> files)
    : tasks_(std::move(tasks)), files_(std::move(files)) {
  // Normalise: ids positional, per-task lists sorted/deduped.
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    tasks_[i].id = static_cast<TaskId>(i);
    auto& fs = tasks_[i].files;
    std::sort(fs.begin(), fs.end());
    fs.erase(std::unique(fs.begin(), fs.end()), fs.end());
    auto& os = tasks_[i].outputs;
    std::sort(os.begin(), os.end());
    os.erase(std::unique(os.begin(), os.end()), os.end());
  }
  for (std::size_t i = 0; i < files_.size(); ++i)
    files_[i].id = static_cast<FileId>(i);
  validate();
}

TaskId Workload::append_tasks(std::vector<TaskInfo> tasks) {
  const auto first = static_cast<TaskId>(tasks_.size());
  tasks_.reserve(tasks_.size() + tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    TaskInfo& t = tasks[i];
    t.id = static_cast<TaskId>(first + i);
    auto& fs = t.files;
    std::sort(fs.begin(), fs.end());
    fs.erase(std::unique(fs.begin(), fs.end()), fs.end());
    auto& os = t.outputs;
    std::sort(os.begin(), os.end());
    os.erase(std::unique(os.begin(), os.end()), os.end());
    BSIO_CHECK_MSG(t.compute_seconds >= 0.0, "negative compute time");
    for (FileId f : fs)
      BSIO_CHECK_MSG(f < files_.size(),
                     "appended task references unknown file");
    for (FileId f : os)
      BSIO_CHECK_MSG(f < files_.size(), "appended task writes unknown file");
    tasks_.push_back(std::move(t));
  }
  return first;
}

double Workload::unique_request_bytes() const {
  return measure(*this).unique_bytes;
}

void Workload::validate() const {
  for (const auto& f : files_) {
    BSIO_CHECK_MSG(f.size_bytes > 0.0, "file sizes must be positive");
  }
  for (const auto& t : tasks_) {
    BSIO_CHECK_MSG(t.compute_seconds >= 0.0, "negative compute time");
    BSIO_CHECK_MSG(std::is_sorted(t.files.begin(), t.files.end()),
                   "task file list must be sorted");
    BSIO_CHECK_MSG(
        std::adjacent_find(t.files.begin(), t.files.end()) == t.files.end(),
        "task file list must be unique");
    for (FileId f : t.files) BSIO_CHECK(f < files_.size());
    BSIO_CHECK_MSG(std::is_sorted(t.outputs.begin(), t.outputs.end()),
                   "task output list must be sorted");
    BSIO_CHECK_MSG(std::adjacent_find(t.outputs.begin(), t.outputs.end()) ==
                       t.outputs.end(),
                   "task output list must be unique");
    for (FileId f : t.outputs) BSIO_CHECK(f < files_.size());
  }
}

}  // namespace bsio::wl
