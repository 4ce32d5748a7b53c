// bench_campaign: work-queue vs static-shard scheduling on a skewed
// sweep grid.
//
// The grid is adversarial for round-robin sharding: with k workers, the
// heavy cells sit at indices ≡ 0 (mod k), so the static partition
// (cell i -> shard i%k) stacks every heavy cell on shard 0 while the
// work queue spreads them across whoever is free.
//
// The gated figure of merit is *makespan*, not raw wall time: per-cell
// costs are measured once by a sequential calibration run, then
//   static makespan = slowest shard's summed cell cost (round-robin), and
//   queue makespan  = greedy list-scheduling makespan (each cell, in
//                     expansion order, goes to the earliest-free worker —
//                     exactly the assignment the coordinator's lease loop
//                     converges to when cell cost dominates frame RTT).
// Makespan is the wall time a machine with >= k cores would see; gating
// on it keeps the bench meaningful on CI boxes with fewer cores than
// workers, where raw wall of any k-process fleet degenerates to
// total-work either way.  The real coordinator still runs end-to-end
// (workers=k, real fork/lease/reduce machinery) and its raw wall and
// lease counters are recorded alongside.
//
//   bench_campaign [--heavy-n=800] [--light-n=150] [--seeds=2]
//                  [--out=.] [--require-speedup=R]
//
// --require-speedup fails the run (exit 1) when the 8-worker makespan
// speedup lands below R — the CI gate for the >= 1.5x target.  Writes
// BENCH_campaign.json (sweep_check compares it row-wise).

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "campaign/coordinator.h"
#include "sweep/expand.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace mcs {
namespace {

/// The skewed sweep: 3*k cells over an n axis, heavy n at every index
/// ≡ 0 (mod k).
bool skewedSweep(int workers, int heavyN, int lightN, int seeds, SweepSpec& spec,
                 std::string& err) {
  spec = SweepSpec{};
  spec.name = "campaign_skew_w" + std::to_string(workers);
  if (!applySweepKey(spec, "base", "uniform_square", "", err)) return false;
  if (!applySweepKey(spec, "seeds", std::to_string(seeds), "", err)) return false;
  if (!applySweepKey(spec, "seed0", "1", "", err)) return false;
  std::string axis;
  for (int i = 0; i < 3 * workers; ++i) {
    if (!axis.empty()) axis += ',';
    axis += std::to_string(i % workers == 0 ? heavyN : lightN);
  }
  return applySweepKey(spec, "sweep.n", axis, "", err);
}

/// Slowest round-robin shard: sum of costs of cells i ≡ shard (mod k).
double staticMakespan(const std::vector<double>& cost, int workers) {
  double worst = 0.0;
  for (int s = 0; s < workers; ++s) {
    double sum = 0.0;
    for (std::size_t i = static_cast<std::size_t>(s); i < cost.size();
         i += static_cast<std::size_t>(workers)) {
      sum += cost[i];
    }
    worst = std::max(worst, sum);
  }
  return worst;
}

/// Greedy list scheduling: each cell, in order, to the earliest-free
/// worker; makespan = last finish time.
double queueMakespan(const std::vector<double>& cost, int workers) {
  std::vector<double> freeAt(static_cast<std::size_t>(workers), 0.0);
  for (const double c : cost) {
    auto it = std::min_element(freeAt.begin(), freeAt.end());
    *it += c;
  }
  return *std::max_element(freeAt.begin(), freeAt.end());
}

}  // namespace
}  // namespace mcs

int main(int argc, char** argv) {
  using namespace mcs;
  using namespace mcs::bench;

  const Args args(argc, argv);
  const int heavyN = static_cast<int>(args.getInt("heavy-n", 800));
  const int lightN = static_cast<int>(args.getInt("light-n", 150));
  const int seeds = static_cast<int>(args.getInt("seeds", 2));
  const std::string outDir = args.get("out", ".");
  const double requireSpeedup = args.getDouble("require-speedup", 0.0);
  armTelemetryCli(args);

  header("bench: campaign scheduling",
         "skewed grid, static round-robin shards vs work-queue leases");
  row("%-8s %-8s %6s %6s %14s %10s %10s", "config", "mode", "cells", "heavy", "makespan(s)",
      "speedup", "wall(s)");

  BenchReport report("campaign");
  report.meta("heavy_n", heavyN).meta("light_n", lightN).meta("seeds", seeds);

  const double t0 = nowSec();
  bool ok = true;
  double w8Speedup = 0.0;
  for (const int workers : {4, 8}) {
    SweepSpec spec;
    std::string err;
    if (!skewedSweep(workers, heavyN, lightN, seeds, spec, err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    // (built up piecewise: GCC 12's -Werror=restrict misfires on the
    // one-line `"w" + std::to_string(...)` form when inlined)
    std::string config = "w";
    config += std::to_string(workers);

    // Calibration: one inline single-lane pass measures every cell's cost
    // on an otherwise idle machine (cells never overlap); the per-seed wall
    // times come back from the cell files.
    const std::string calDir = outDir + "/bench-campaign/" + config + "-cal";
    std::filesystem::remove_all(calDir);
    campaign::WorkQueueOptions cal;
    cal.threadsPerWorker = 1;
    cal.outDir = calDir;
    campaign::WorkQueueCampaign calRun;
    if (!campaign::runCampaignWorkQueue(spec, cal, calRun, err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    std::vector<double> cost;
    cost.reserve(calRun.cells.size());
    for (const campaign::CellRecord& rec : calRun.cells) {
      CellResult cell;
      if (!loadCellResult(cellFilePath(calDir, spec.name, rec.cell.index), cell, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      double sum = 0.0;
      for (const SeedResult& r : cell.batch.perSeed) sum += r.wallSec;
      cost.push_back(sum);
    }

    const double staticMk = staticMakespan(cost, workers);
    const double queueMk = queueMakespan(cost, workers);
    const double speedup = queueMk > 0.0 ? staticMk / queueMk : 0.0;
    if (workers == 8) w8Speedup = speedup;

    // Drive the real coordinator end-to-end on the same grid: forked
    // workers, lease protocol, tree reduction.  Its raw wall depends on
    // the host's core count, so it is recorded, not the gated number.
    const std::string wqDir = outDir + "/bench-campaign/" + config + "-wq";
    std::filesystem::remove_all(wqDir);
    campaign::WorkQueueOptions wq;
    wq.workers = workers;
    wq.outDir = wqDir;
    campaign::WorkQueueCampaign wqc;
    if (!campaign::runCampaignWorkQueue(spec, wq, wqc, err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    if (wqc.failures() > 0 || wqc.leases != cost.size()) ok = false;

    const int heavyCells = 3;
    row("%-8s %-8s %6zu %6d %14.3f %10s %10.2f", config.c_str(), "static", cost.size(),
        heavyCells, staticMk, "1.00", calRun.wallSec);
    row("%-8s %-8s %6zu %6d %14.3f %10.2f %10.2f", config.c_str(), "queue", cost.size(),
        heavyCells, queueMk, speedup, wqc.wallSec);

    report.row()
        .col("config", config)
        .col("mode", "static")
        .col("cells", static_cast<double>(cost.size()))
        .col("heavy_cells", heavyCells)
        .col("makespan_wall_sec", staticMk);
    report.row()
        .col("config", config)
        .col("mode", "queue")
        .col("cells", static_cast<double>(cost.size()))
        .col("heavy_cells", heavyCells)
        .col("makespan_wall_sec", queueMk)
        .col("speedup", speedup)
        .col("wall_sec", wqc.wallSec)
        .col("leases", static_cast<double>(wqc.leases))
        .col("requeues", static_cast<double>(wqc.requeues));
  }
  const double wall = nowSec() - t0;

  row("%s", "");
  if (requireSpeedup > 0.0) {
    row("gate: w8 makespan speedup %.2fx (required >= %.2fx) -> %s", w8Speedup,
        requireSpeedup, w8Speedup >= requireSpeedup ? "PASS" : "FAIL");
    if (w8Speedup < requireSpeedup) ok = false;
  }
  if (!report.write(outDir)) return 1;
  if (!finishTelemetryCli(args, wall)) return 1;
  return ok ? 0 : 1;
}
