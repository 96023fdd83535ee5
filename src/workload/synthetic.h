// Synthetic overlap-controlled workload generator.
//
// Used by tests and ablations where we need precise control over the batch's
// file-sharing structure without the domain detail of the SAT/IMAGE
// emulators. Tasks draw files from a pool whose size directly determines the
// overlap fraction.
#pragma once

#include "util/rng.h"
#include "workload/types.h"

namespace bsio::wl {

struct SyntheticConfig {
  std::size_t num_tasks = 100;
  std::size_t files_per_task = 8;
  // Target overlap in [0, 1). The pool size is chosen as
  // ceil(num_tasks * files_per_task * (1 - overlap)).
  double overlap = 0.85;
  double file_size_bytes = 50.0 * 1024 * 1024;
  // Relative jitter applied to file sizes, in [0, 1). 0 = uniform sizes.
  double file_size_jitter = 0.0;
  double compute_seconds_per_byte = 0.001 / (1024.0 * 1024.0);  // 0.001 s/MB
  // Relative jitter applied to each task's compute time, in [0, 1).
  // 0 = compute strictly proportional to input bytes. Pairs with the
  // cluster-side sim::make_skewed_cluster bandwidth/CPU skew to model
  // heterogeneous demand on heterogeneous hardware.
  double compute_jitter = 0.0;
  std::size_t num_storage_nodes = 4;
  std::uint64_t seed = 1;
};

Workload make_synthetic(const SyntheticConfig& cfg);

// --- Streaming generation (scale sweeps). ---
//
// make_synthetic draws from an explicit pool whose FileInfo table is
// materialized up front — fine at emulator scale, hopeless when the file
// universe has millions of entries and a batch touches a fraction of them.
// The streaming generator instead defines a VIRTUAL universe of
// `universe_files` ids whose per-file metadata (size jitter, home node) is
// derived by hashing the universe id, draws each task's file set with
// per-task seeded generators, and only then materializes the catalogue of
// the files actually drawn (densely remapped, ids sorted by universe id).
// Peak memory is O(tasks * files_per_task + distinct files drawn) — it
// never scales with universe_files.
struct StreamingSyntheticConfig {
  std::size_t num_tasks = 100'000;
  std::size_t files_per_task = 8;
  // Size of the virtual file universe the draws come from. The expected
  // distinct-file count (uniform draws) is
  // universe * (1 - (1 - 1/universe)^requests).
  std::size_t universe_files = 2'000'000;
  // Popularity skew of the draw over the universe (0 = uniform): ranks are
  // drawn with Rng::zipf_stream, so hot low ids are shared across tasks.
  double zipf_s = 0.0;
  double file_size_bytes = 50.0 * 1024 * 1024;
  // Relative jitter applied to file sizes, in [0, 1); derived per universe
  // id by hashing, so a file's size is stable however it is drawn.
  double file_size_jitter = 0.25;
  double compute_seconds_per_byte = 0.001 / (1024.0 * 1024.0);  // 0.001 s/MB
  std::size_t num_storage_nodes = 4;
  std::uint64_t seed = 1;
};

Workload make_synthetic_streaming(const StreamingSyntheticConfig& cfg);

}  // namespace bsio::wl
