// Shared file catalogue for the online service.
//
// The single-batch pipeline treats each Workload's file catalogue as
// private. An online service instead runs many batches against ONE
// catalogue: consecutive batches re-request the popular files, and the
// copies a batch leaves on the compute disks are the next batch's head
// start (the streaming service's one engine keeps them between batches).
// make_shared_catalog / make_service_batch generate such batches
// deterministically, drawing Zipf-skewed file sets from one shared
// catalogue, so cross-batch sharing exists by construction — the paper's
// batch-shared I/O premise stretched across batches.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/types.h"

namespace bsio::service {

struct SharedCatalogConfig {
  std::size_t num_files = 256;
  double mean_file_size_bytes = 50.0 * 1024 * 1024;
  // Relative size jitter in [0, 1); 0 = uniform sizes.
  double file_size_jitter = 0.25;
  std::size_t num_storage_nodes = 4;
  std::uint64_t seed = 1;
};

// The catalogue every batch of one service run shares: file ids are dense
// 0..num_files-1 and homes round-robin over the storage nodes, so a
// Workload built over it keeps file ids stable across batches (the
// precondition for appending every batch to the streaming service's one
// merged workload).
std::vector<wl::FileInfo> make_shared_catalog(const SharedCatalogConfig& cfg);

struct ServiceBatchConfig {
  std::size_t tasks_per_batch = 32;
  std::size_t files_per_task = 4;
  // Zipf exponent of the per-task file draw over the shared catalogue
  // (0 = uniform). Skew > 0 concentrates requests on low file ids, which is
  // what makes consecutive batches share hot files.
  double zipf_s = 1.1;
  double compute_seconds_per_byte = 0.001 / (1024.0 * 1024.0);  // 0.001 s/MB
  // Fraction of tasks that WRITE one of their input files (read-modify-
  // write: the file joins wl::TaskInfo::outputs, so executing the task
  // bumps its version epoch and invalidates cached copies — the replica
  // manager's write-back workload). In [0, 1]. The write draws consume rng
  // state ONLY when > 0, keeping every pre-existing zero-write sequence
  // bit-identical.
  double write_fraction = 0.0;
};

// One batch over the shared catalogue: every task draws
// `files_per_task` DISTINCT files Zipf-skewed towards the hot (low-id) end,
// compute time proportional to input bytes. Deterministic in `seed`.
wl::Workload make_service_batch(const std::vector<wl::FileInfo>& catalog,
                                const ServiceBatchConfig& cfg,
                                std::uint64_t seed);

}  // namespace bsio::service
