// Plain-text serialisation of workloads, so a calibrated batch can be
// saved once and re-used across runs and tools.
//
// Format (line oriented, '#' comments allowed):
//   bsio-workload 1
//   files <count>
//   <size_bytes> <home_storage_node>            (one line per file)
//   tasks <count>
//   <compute_seconds> <n> <file_0> ... <file_n-1>  (one line per task)
#pragma once

#include <iosfwd>

#include "workload/types.h"

namespace bsio::wl {

void save_workload(const Workload& w, std::ostream& os);
// Aborts (BSIO_CHECK) on malformed input.
Workload load_workload(std::istream& is);

}  // namespace bsio::wl
