// Core batch / task / file types shared by every layer of the library.
//
// A Workload is a batch of independent tasks plus the catalogue of files the
// batch touches. Files are the unit of I/O transfer; each file has a home
// storage node (its initial and only location). Task compute cost is given
// in seconds (the emulators derive it from input volume at a configurable
// per-byte compute rate, matching the paper's 0.001 s/MB testbed figure).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bsio::wl {

using TaskId = std::uint32_t;
using FileId = std::uint32_t;
using NodeId = std::uint32_t;

inline constexpr FileId kInvalidFile = static_cast<FileId>(-1);
inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

struct FileInfo {
  FileId id = kInvalidFile;
  double size_bytes = 0.0;
  NodeId home_storage_node = kInvalidNode;
};

struct TaskInfo {
  TaskId id = kInvalidTask;
  double compute_seconds = 0.0;
  // Distinct files this task reads (sorted ascending, no duplicates).
  std::vector<FileId> files;
  // Files this task WRITES when it completes (sorted ascending, no
  // duplicates; may overlap `files` — a read-modify-write). A write bumps
  // the file's version epoch: every cached copy on other nodes goes stale
  // and the home storage copy is dirty until the replica manager flushes
  // it back (see sim::ExecutionEngine and replica::ReplicaManager). Tasks
  // with no outputs — every pre-existing workload — leave the engine's
  // behaviour bit-identical to the immutable-file model.
  std::vector<FileId> outputs;
};

class Workload {
 public:
  Workload() = default;
  Workload(std::vector<TaskInfo> tasks, std::vector<FileInfo> files);

  const std::vector<TaskInfo>& tasks() const { return tasks_; }
  const std::vector<FileInfo>& files() const { return files_; }
  const TaskInfo& task(TaskId t) const { return tasks_[t]; }
  const FileInfo& file(FileId f) const { return files_[f]; }
  std::size_t num_tasks() const { return tasks_.size(); }
  std::size_t num_files() const { return files_.size(); }

  double file_size(FileId f) const { return files_[f].size_bytes; }

  // Total bytes of one copy of every file any task requests, summed in
  // ascending file id (wl::measure's unique_bytes).
  double unique_request_bytes() const;

  // Appends tasks to the batch, keeping the file catalogue fixed — the
  // streaming service's growable merged workload (batches admitted into the
  // live horizon window join one Workload over the shared catalogue). Ids
  // continue densely from the current task count; per-task file lists are
  // normalised exactly like the constructor's. Returns the id of the first
  // appended task.
  TaskId append_tasks(std::vector<TaskInfo> tasks);

  // Validation: file ids in range, per-task file lists sorted and unique,
  // sizes positive. Aborts via BSIO_CHECK on violation.
  void validate() const;

 private:
  std::vector<TaskInfo> tasks_;
  std::vector<FileInfo> files_;
};

}  // namespace bsio::wl
