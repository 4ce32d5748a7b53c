// sweep_runner: execute a declarative parameter-sweep campaign.
//
//   sweep_runner --list
//   sweep_runner --sweep=sweeps/e2_scaling.sweep [--shard=0/2] [overrides]
//   sweep_runner --preset=e4_coloring [--cells] [overrides]
//
// Spec resolution: preset (--preset) -> sweep file (--sweep) -> any other
// --key=value flag as a sweep override (fixed scenario key, or a
// sweep./zip. axis; overrides replace same-key assignments, so
// `--preset=e2_scaling --seeds=1` shrinks the campaign).  Runner-owned
// flags: --list, --cells (print the expansion and shard membership
// without running), --dry-run (like --cells plus each cell's fully
// resolved `key = value` scenario — debug a sweep file without running
// it), --shard=i/k (deterministic cell partition for CI matrices),
// --threads (batch lanes per cell), --out-dir (store + cell JSON root),
// --store=<path> (move the store), --store-strip-wall (zero the wall
// times, for byte comparisons), --resume (skip cells whose cell JSON
// already exists), --workers=N (forked workers).
//
// Output: the campaign store BENCH_sweep_<name>.store — per-cell counters
// and the full accumulator state of every named metric and wall time,
// plus per-cell telemetry and probe blobs — and one JSON per cell under
// sweep_cells/<name>/ with the per-seed rows.  Read the store with
// sweep_query; gate it against a committed baseline with
// `sweep_check --candidate-store`.  Exit: 0 success, 1 seed failures,
// 2 usage/spec/campaign errors.

#include "sweep_cli.h"

#include "sweep/presets.h"

using namespace mcs;
using namespace mcs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);

  if (args.getBool("list")) {
    for (const SweepPresetInfo& info : SweepRegistry::list()) {
      std::printf("%-20s %s\n", info.name.c_str(), info.description.c_str());
    }
    return 0;
  }

  SweepSpec spec;
  std::string err;
  const std::string preset = args.get("preset");
  const std::string file = args.get("sweep");
  if (preset.empty() && file.empty()) {
    std::fprintf(stderr,
                 "usage: sweep_runner --list | --preset=<name> | --sweep=<file> "
                 "[--shard=i/k] [--threads=N] [--out-dir=DIR] [--store=PATH] [--resume] "
                 "[--cells] [--dry-run] [overrides]\n");
    return 2;
  }
  if (!preset.empty() && !SweepRegistry::find(preset, spec, err)) {
    std::fprintf(stderr, "%s; --list shows the registry\n", err.c_str());
    return 2;
  }
  if (!file.empty() && !loadSweepFile(spec, file, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (!applySweepFlagOverrides(spec, args, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  return runSweepCampaignCli(spec, args);
}
