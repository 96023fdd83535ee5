// Replica lifecycle: background repair after fail-stop crashes and the
// durability-vs-makespan frontier of tiered replication (DESIGN.md §15).
//
// Two experiments on a 4 compute + 4 XIO storage cluster:
//
//  1. Repair gate — a read-only batch over a shared service catalogue
//     loses two compute nodes mid-run at replication factor 2. The
//     replica manager must restore
//     every file to its tier target before the run reports, at every
//     swept repair-bandwidth cap (the cap lengthens repair transfers but
//     must never strand the deficit).
//  2. Durability frontier — a service batch where 30% of the tasks WRITE
//     one of their inputs (version epochs, write-back), under one
//     mid-run crash, swept across replication factor 1 / 2 / 3. Reports
//     the makespan alongside the durability spend (repair bytes, flushes)
//     and the durability losses (stale reads of lost versions, files left
//     below target).
//
// Results land in BENCH_replica.json.
//
//   replica_lifecycle [--smoke] [--out <path>]
//
// --smoke shrinks both workloads for CI. Exit is non-zero if any repair-
// gate run finishes with a replica deficit, without creating any repair
// copies, or (full run only) if the frontier fails to order repair bytes
// monotonically in the replication factor.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "replica/replica.h"
#include "sched/driver.h"
#include "sched/minmin.h"
#include "service/catalog.h"
#include "sim/faults.h"

namespace {

using namespace bsio;

replica::ReplicaConfig rf_config(std::uint32_t rf, double cap) {
  replica::ReplicaConfig cfg;
  cfg.enabled = true;
  cfg.tiers = {{0.0, rf}};
  cfg.repair_bandwidth_cap = cap;
  return cfg;
}

struct GateRow {
  double cap_mb = 0.0;  // 0 = uncapped
  double makespan = 0.0;
  std::size_t replicas_created = 0;
  double repair_bytes = 0.0;
  double repair_seconds = 0.0;
  std::size_t deficit = 0;
};

struct FrontierRow {
  std::uint32_t rf = 0;
  double makespan = 0.0;
  std::size_t replicas_created = 0;
  std::size_t replicas_invalidated = 0;
  std::size_t home_flushes = 0;
  double repair_bytes = 0.0;
  std::size_t lost_versions = 0;
  std::size_t deficit = 0;
};

void write_json(const char* path, bool smoke,
                const std::vector<GateRow>& gate,
                const std::vector<FrontierRow>& frontier) {
  bench::JsonWriter j(path);
  j.begin_object();
  j.field("bench", "replica_lifecycle");
  j.begin_object("config");
  j.field("cluster", "4 compute + 4 XIO storage");
  j.field("gate_workload", "read-only service batch, 2 fail-stop crashes");
  j.field("frontier_workload",
          "service batch, write_fraction 0.3, 1 fail-stop crash");
  j.field("smoke", smoke);
  j.end_object();
  j.begin_array("repair_gate");
  for (const GateRow& r : gate) {
    j.begin_object();
    j.field("repair_cap_mb_per_s", r.cap_mb, 0);
    j.field("makespan_seconds", r.makespan, 2);
    j.field("replicas_created", r.replicas_created);
    j.field("repair_bytes", r.repair_bytes, 0);
    j.field("repair_seconds", r.repair_seconds, 2);
    j.field("replica_deficit", r.deficit);
    j.end_object();
  }
  j.end_array();
  j.begin_array("durability_frontier");
  for (const FrontierRow& r : frontier) {
    j.begin_object();
    j.field("replication_factor", static_cast<std::size_t>(r.rf));
    j.field("makespan_seconds", r.makespan, 2);
    j.field("replicas_created", r.replicas_created);
    j.field("replicas_invalidated", r.replicas_invalidated);
    j.field("home_flushes", r.home_flushes);
    j.field("repair_bytes", r.repair_bytes, 0);
    j.field("lost_versions", r.lost_versions);
    j.field("replica_deficit", r.deficit);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bsio::bench;

  ParseArgs args(argc, argv, "replica_lifecycle [--smoke] [--out <path>]");
  const bool smoke = args.has("--smoke");
  const char* out_path = args.value("--out", "BENCH_replica.json");
  args.reject_unknown();

  banner("Replica lifecycle — crash repair and the durability frontier",
         "4 compute + 4 XIO storage nodes; tiered replication targets with "
         "background repair on the shared timelines; version-epoch "
         "write-back for mutable files",
         "repair restores the tier target after fail-stop crashes at every "
         "bandwidth cap (tighter caps just take longer); raising the "
         "replication factor buys fewer lost versions at the price of "
         "repair bytes and a longer batch");

  const sim::ClusterConfig cluster = sim::xio_cluster(4, 4);
  sched::MinMinScheduler mm;
  bool gate_holds = true;

  service::SharedCatalogConfig ccfg;
  ccfg.num_files = smoke ? 32 : 96;
  ccfg.num_storage_nodes = cluster.num_storage_nodes;
  ccfg.mean_file_size_bytes = 50.0 * sim::kMB;
  const std::vector<wl::FileInfo> catalog =
      service::make_shared_catalog(ccfg);
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = smoke ? 16 : 48;
  bcfg.files_per_task = 3;

  // --- Experiment 1: repair restores the tier target after crashes. ---
  std::vector<GateRow> gate_rows;
  {
    const wl::Workload w = service::make_service_batch(catalog, bcfg, 11);
    // Stagger two fail-stops across the fault-free makespan.
    const double ref =
        sched::run_batch(mm, w, cluster, sched::BatchRunOptions{}).batch_time;
    sim::FaultConfig faults;
    faults.compute_crashes = {{0, 0.3 * ref}, {1, 0.6 * ref}};

    Table t({"repair cap (MB/s)", "makespan (s)", "repair copies",
             "repair MB", "repair (s)", "deficit"});
    const std::vector<double> caps =
        smoke ? std::vector<double>{0.0, 25.0}
              : std::vector<double>{0.0, 100.0, 50.0, 25.0};
    for (double cap_mb : caps) {
      sched::BatchRunOptions opts;
      opts.faults = faults;
      opts.replication = rf_config(2, cap_mb * sim::kMB);
      const auto r = sched::run_batch(mm, w, cluster, opts);
      GateRow row{cap_mb, r.batch_time, r.stats.replicas_created,
                  r.stats.repair_bytes, r.stats.repair_seconds,
                  r.replica_deficit};
      t.add_row({cap_mb > 0.0 ? format_fixed(cap_mb, 0) : "uncapped",
                 format_fixed(row.makespan, 1),
                 std::to_string(row.replicas_created),
                 format_fixed(row.repair_bytes / sim::kMB, 0),
                 format_fixed(row.repair_seconds, 1),
                 std::to_string(row.deficit)});
      std::fprintf(stderr, "  [gate cap=%.0f] %zu copies, deficit %zu%s\n",
                   cap_mb, row.replicas_created, row.deficit,
                   r.ok() ? "" : " FAILED");
      if (!r.ok() || row.deficit != 0 || row.replicas_created == 0) {
        std::fprintf(stderr,
                     "replica_lifecycle: repair failed to restore RF 2 at "
                     "cap %.0f MB/s (deficit %zu, %zu copies)\n",
                     cap_mb, row.deficit, row.replicas_created);
        gate_holds = false;
      }
      gate_rows.push_back(row);
    }
    t.print("Repair gate: RF 2, two fail-stop crashes, swept repair cap");
  }

  // --- Experiment 2: durability vs makespan across RF 1 / 2 / 3. ---
  std::vector<FrontierRow> frontier_rows;
  {
    service::ServiceBatchConfig wcfg = bcfg;
    wcfg.write_fraction = 0.3;
    const wl::Workload w = service::make_service_batch(catalog, wcfg, 17);
    const double ref =
        sched::run_batch(mm, w, cluster, sched::BatchRunOptions{}).batch_time;

    Table t({"RF", "makespan (s)", "repair copies", "invalidated",
             "flushes", "repair MB", "lost versions", "deficit"});
    for (std::uint32_t rf : {1u, 2u, 3u}) {
      sched::BatchRunOptions opts;
      opts.faults.compute_crashes = {{0, 0.4 * ref}};
      opts.replication = rf_config(rf, 50.0 * sim::kMB);
      const auto r = sched::run_batch(mm, w, cluster, opts);
      if (!r.ok()) {
        std::fprintf(stderr, "replica_lifecycle: frontier rf=%u failed: %s\n",
                     rf, r.error.c_str());
        gate_holds = false;
        continue;
      }
      FrontierRow row{rf,
                      r.batch_time,
                      r.stats.replicas_created,
                      r.stats.replicas_invalidated,
                      r.stats.home_flushes,
                      r.stats.repair_bytes,
                      r.stats.lost_versions,
                      r.replica_deficit};
      t.add_row({std::to_string(rf), format_fixed(row.makespan, 1),
                 std::to_string(row.replicas_created),
                 std::to_string(row.replicas_invalidated),
                 std::to_string(row.home_flushes),
                 format_fixed(row.repair_bytes / sim::kMB, 0),
                 std::to_string(row.lost_versions),
                 std::to_string(row.deficit)});
      std::fprintf(stderr,
                   "  [frontier rf=%u] %.1fs, %zu copies, %zu lost\n", rf,
                   row.makespan, row.replicas_created, row.lost_versions);
      frontier_rows.push_back(row);
    }
    t.print("Durability frontier: write-back batch under one crash");

    // Spending more on durability must show up as more repair traffic.
    if (!smoke)
      for (std::size_t i = 1; i < frontier_rows.size(); ++i)
        if (frontier_rows[i].repair_bytes <
            frontier_rows[i - 1].repair_bytes) {
          std::fprintf(stderr,
                       "replica_lifecycle: repair bytes not monotone in RF "
                       "(rf=%u: %.0f < rf=%u: %.0f)\n",
                       frontier_rows[i].rf, frontier_rows[i].repair_bytes,
                       frontier_rows[i - 1].rf,
                       frontier_rows[i - 1].repair_bytes);
          gate_holds = false;
        }
  }

  write_json(out_path, smoke, gate_rows, frontier_rows);
  std::printf("wrote %s (%zu + %zu rows)\n", out_path, gate_rows.size(),
              frontier_rows.size());
  return gate_holds ? 0 : 1;
}
