#pragma once

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "campaign/coordinator.h"

/// The sweep_runner driver: parses the runner flags, runs the campaign
/// through the coordinator, prints the per-cell table, and writes the
/// campaign store BENCH_sweep_<name>.store (query it with sweep_query,
/// gate it with sweep_check --candidate-store).  The declarative
/// experiment grids run through it as presets, e.g.
///   sweep_runner --preset=e2_scaling
///   sweep_runner --preset=e8_robustness && sweep_runner --preset=e8_uncertainty
namespace mcs::bench {

/// Runner-owned flags every sweep binary reserves; any other --key=value
/// is applied as a sweep override (fixed value, or a sweep./zip. axis).
inline const std::vector<std::string>& sweepReservedFlags() {
  static const std::vector<std::string> kReserved = {
      "list",    "cells",   "dry-run", "sweep",     "preset",       "shard",
      "threads", "out-dir", "out",     "resume",    "metrics",      "probes",
      "trace-out", "no-heartbeat", "workers", "fault-kill-cell", "store",
      "store-strip-wall"};
  return kReserved;
}

/// Applies every non-reserved --key=value flag to the sweep spec, in
/// command-line order (key order is load-bearing: a `--range=0.8` after
/// `--sweep.alpha=...` must rescale with the cell's alpha).
inline bool applySweepFlagOverrides(SweepSpec& spec, const Args& args, std::string& err) {
  for (const auto& [key, value] : args.namedOrdered()) {
    bool reserved = false;
    for (const std::string& r : sweepReservedFlags()) {
      if (key == r) {
        reserved = true;
        break;
      }
    }
    if (reserved) continue;
    if (!applySweepOverride(spec, key, value, err)) return false;
  }
  return true;
}

/// Runs `spec` honoring --shard/--threads/--out-dir/--resume/--store/
/// --workers and --cells (list the expansion without running).  The store
/// goes to --store=<path>, else `<out-dir>/BENCH_sweep_<name>.store`.
/// Returns the process exit code: 0 success, 1 seed failures or an
/// unwritable telemetry file, 2 usage or campaign errors.
inline int runSweepCampaignCli(const SweepSpec& spec, const Args& args) {
  campaign::WorkQueueOptions opts;
  // --workers N forks N worker processes (0 = hardware concurrency), with
  // one batch lane each unless --threads asks for more; without the flag
  // cells run inline, each seed batch on --threads lanes.  Per-cell
  // results and stores are identical either way (wall times aside), so
  // the same baselines gate both executors.
  if (args.has("workers")) {
    opts.workers = static_cast<int>(args.getInt("workers", 0));
    if (opts.workers <= 0) opts.workers = static_cast<int>(std::thread::hardware_concurrency());
    if (opts.workers <= 0) opts.workers = 2;
    opts.threadsPerWorker = static_cast<int>(args.getInt("threads", 1));
  } else {
    opts.threadsPerWorker = static_cast<int>(args.getInt(
        "threads", static_cast<long>(std::max(2u, std::thread::hardware_concurrency()))));
  }
  // --out-dir is the documented flag; --out stays as a compatibility
  // alias for the scenario_runner convention.
  opts.outDir = args.get("out-dir", args.get("out", "."));
  opts.resume = args.getBool("resume");
  const std::string shard = args.get("shard");
  std::string err;
  if (!shard.empty() && !parseShard(shard, opts.shardIndex, opts.shardCount, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  if (args.getBool("cells") || args.getBool("dry-run")) {
    std::vector<SweepCell> cells;
    if (!expandSweep(spec, cells, err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    const bool dryRun = args.getBool("dry-run");
    for (const SweepCell& cell : cells) {
      std::printf("%-6d %-5s %s\n", cell.index,
                  cellInShard(cell.index, opts.shardIndex, opts.shardCount) ? "run" : "skip",
                  cell.label.c_str());
      if (dryRun) {
        // The fully-resolved cell spec, indented: exactly what the seed
        // batch would run (debug sweep files without paying for a run).
        const std::string kv = scenarioToKeyValues(cell.spec);
        std::size_t lineStart = 0;
        while (lineStart < kv.size()) {
          std::size_t lineEnd = kv.find('\n', lineStart);
          if (lineEnd == std::string::npos) lineEnd = kv.size();
          std::printf("       %.*s\n", static_cast<int>(lineEnd - lineStart),
                      kv.c_str() + lineStart);
          lineStart = lineEnd + 1;
        }
      }
    }
    return 0;
  }

  // --metrics / --trace-out arm the engine telemetry (per-cell "telemetry"
  // blocks, and the store rows' telemetry blobs); the stderr progress
  // heartbeat is on for interactive campaigns unless --no-heartbeat.
  armTelemetryCli(args);
  opts.heartbeat = !args.getBool("no-heartbeat");

  // Every cell streams into the columnar campaign store, by default
  // `<out-dir>/BENCH_sweep_<name>.store`; --store=<path> moves it.
  const std::string storeArg = args.get("store");
  opts.storePath = (storeArg.empty() || storeArg == "1")
                       ? opts.outDir + "/BENCH_sweep_" + spec.name + ".store"
                       : storeArg;
  opts.storeStripWall = args.getBool("store-strip-wall");

  header("sweep: " + spec.name, describeSweep(spec));
  row("%-6s %-32s %10s %9s %5s %8s  %s", "cell", "label", "slots", "dec.rate", "ok",
      "wall(s)", "status");
  opts.onCell = [](const SweepCell& cell, bool cached) {
    if (cached) row("%-6d %-32s %46s", cell.index, cell.label.c_str(), "cached");
  };

  opts.faultKillCell = static_cast<int>(args.getInt("fault-kill-cell", -1));
  // With forked workers the per-process trace rings live in the workers;
  // the coordinator merges them into --trace-out itself (pid = worker id),
  // so finishTelemetryCli must not overwrite it with the coordinator's own
  // (empty) ring.  Inline runs trace into this process's ring, which
  // finishTelemetryCli writes.
  if (opts.workers > 0) opts.traceOut = args.get("trace-out");

  campaign::WorkQueueCampaign run;
  if (!campaign::runCampaignWorkQueue(spec, opts, run, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  for (const campaign::CellRecord& rec : run.cells) {
    row("%-6d %-32s %10.0f %9.3f %2d/%-2d %8.2f  %s", rec.cell.index, rec.cell.label.c_str(),
        rec.slotsMean, rec.decodeRateMean, rec.delivered, rec.cell.spec.seeds, rec.wallMeanSec,
        rec.fromCache ? "cached" : "ran");
  }
  row("%s", "");
  row("campaign: %zu/%d cells (shard %d/%d), %d cached, %d seed failures, %.2fs",
      run.cells.size(), run.totalCells, run.shardIndex, run.shardCount, run.cachedCells(),
      run.failures(), run.wallSec);
  if (opts.workers > 0) {
    row("work queue: %d workers, %llu leases, %llu requeues, %llu worker deaths, peak %zu "
        "pending reduce nodes",
        opts.workers, static_cast<unsigned long long>(run.leases),
        static_cast<unsigned long long>(run.requeues),
        static_cast<unsigned long long>(run.workerDeaths), run.peakPendingNodes);
  }

  std::printf("wrote %s\n", opts.storePath.c_str());
  if (!opts.traceOut.empty() && telemetry::traceEnabled()) {
    std::printf("wrote %s (merged worker traces)\n", opts.traceOut.c_str());
  }

  if (!finishTelemetryCli(args, run.wallSec, /*writeTrace=*/opts.traceOut.empty())) return 1;
  return run.failures() > 0 ? 1 : 0;
}

}  // namespace mcs::bench
