// scenario_runner: execute a declarative scenario across a seed batch.
//
//   scenario_runner --list
//   scenario_runner --scenario=<preset> [--seeds=K] [--seed0=S] [overrides]
//   scenario_runner --file=spec.txt [overrides]
//   scenario_runner --scenario=<preset> [overrides] --print-spec
//
// Spec resolution order: preset (--scenario) -> scenario file (--file) ->
// any other --key=value flag as a spec override (unknown keys abort; see
// scenario/spec.h for the key list).  Runner-owned flags: --list, --file,
// --scenario, --threads (batch lanes), --out-dir (report directory; the
// deterministic BENCH_scenario_<name>.json lands there instead of the
// cwd; --out is a compatibility alias), --csv (per-seed CSV path), and
// --print-spec (echo the fully-resolved spec as canonical `key = value`
// lines and exit without running — what a sweep cell or a preset plus
// overrides actually resolves to).
//
// Every ProtocolKind runs through its ProtocolDriver, so one CLI covers
// all ten workloads (`--protocol=coloring`, `--protocol=ruling_set`,
// ...).  Output: a per-seed table + batch summary on stdout, and the same
// numbers — including each driver's named metrics — as
// BENCH_scenario_<name>.json via BenchReport so scenario runs accumulate
// in the same perf history as the other benches.  Exit is nonzero when
// any seed fails, when no seed delivers, or when the report cannot be
// written.

#include <cstdio>
#include <thread>

#include "bench_common.h"

using namespace mcs;
using namespace mcs::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);

  if (args.getBool("list")) {
    for (const ScenarioPresetInfo& info : ScenarioRegistry::list()) {
      std::printf("%-20s %s\n", info.name.c_str(), info.description.c_str());
    }
    std::printf("\nmobility models (the `mobility` scenario key):\n");
    for (const MobilityModelInfo& info : mobilityModelList()) {
      std::printf("  %-18s %s\n", info.name, info.description);
    }
    return 0;
  }

  // 1. Resolve the spec: preset, then file, then flag overrides.
  ScenarioSpec spec;
  const std::string presetName = args.get("scenario");
  if (!presetName.empty() && !ScenarioRegistry::find(presetName, spec)) {
    std::fprintf(stderr, "unknown scenario \"%s\"; --list shows the registry\n",
                 presetName.c_str());
    return 2;
  }
  std::string err;
  const std::string file = args.get("file");
  if (!file.empty() && !loadScenarioFile(spec, file, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  if (!applyScenarioArgs(spec, args,
                         {"list", "scenario", "file", "threads", "out", "out-dir", "csv",
                          "print-spec", "metrics", "probes", "trace-out"},
                         err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  const std::string invalid = validateScenario(spec);
  if (!invalid.empty()) {
    std::fprintf(stderr, "invalid scenario: %s\n", invalid.c_str());
    return 2;
  }

  if (args.getBool("print-spec")) {
    // The canonical serialization: feed it back via --file to reproduce.
    std::fputs(scenarioToKeyValues(spec).c_str(), stdout);
    return 0;
  }

  const int threads = static_cast<int>(args.getInt(
      "threads", static_cast<long>(std::max(2u, std::thread::hardware_concurrency()))));
  const std::string outDir = args.get("out-dir", args.get("out", "."));

  // 2. Run the batch.  --metrics arms the counter/timer registry (summary
  //    table + "telemetry" block in the BENCH json); --trace-out=<path>
  //    records the slot-level Chrome trace.
  armTelemetryCli(args);
  header("scenario: " + spec.name, describeScenario(spec));
  const double t0 = nowSec();
  const ScenarioBatchResult batch = runScenarioBatch(spec, threads);
  const double wall = nowSec() - t0;
  const std::vector<std::string> metricNames = batch.metricNames();

  // 3. Per-seed table + report rows.
  BenchReport report("scenario_" + spec.name);
  report.meta("scenario", describeScenario(spec));
  report.meta("deployment", toString(spec.deployment.kind));
  report.meta("protocol", toString(spec.protocol));
  report.meta("medium_mode", toString(spec.sinr.mediumMode));
  report.meta("fading", toString(spec.sinr.fading.model));
  report.meta("n", spec.deployment.n);
  report.meta("channels", spec.channels);
  report.meta("seeds", spec.seeds);
  report.meta("seed0", static_cast<double>(spec.seed0));
  report.meta("batch_threads", threads);
  report.meta("batch_wall_sec", wall);

  row("%-8s %6s %10s %10s %9s %5s %10s %8s  %s", "seed", "n", "slots", "structure", "dec.rate",
      "ok", "valid", "wall(s)", "error");
  for (const SeedResult& r : batch.perSeed) {
    row("%-8llu %6d %10llu %10llu %9.3f %5s %10s %8.2f  %s",
        static_cast<unsigned long long>(r.seed), r.deployedN,
        static_cast<unsigned long long>(r.slots),
        static_cast<unsigned long long>(r.structureSlots), r.decodeRate,
        r.failed() ? "ERR" : (r.delivered ? "yes" : "NO"), toString(r.validity).c_str(),
        r.wallSec, r.error.c_str());
    report.row()
        .col("seed", static_cast<double>(r.seed))
        .col("deployed_n", r.deployedN)
        .col("slots", static_cast<double>(r.slots))
        .col("transmissions", static_cast<double>(r.transmissions))
        .col("listens", static_cast<double>(r.listens))
        .col("decodes", static_cast<double>(r.decodes))
        .col("decode_rate", r.decodeRate)
        .col("structure_slots", static_cast<double>(r.structureSlots))
        .col("delivered", r.delivered ? 1.0 : 0.0)
        .col("valid", toString(r.validity))
        .col("wall_sec", r.wallSec)
        .col("error", r.error);
    for (const auto& [name, value] : r.metrics.entries()) report.col(name, value);
  }

  // 4. Batch summary: the shared medium metrics, then every named metric
  //    the protocol reported.
  const Summary slots = batch.summarizeSlots();
  const Summary rate = batch.summarizeDecodeRate();
  const Summary wallSec = batch.summarizeWallSec();
  const int failures = batch.failures();
  const int delivered = batch.deliveredCount();
  row("%s", "");
  row("batch: %d seeds, %d delivered, %d failed, %d valid / %d invalid | slots mean=%.0f "
      "[%.0f, %.0f] | decode rate mean=%.3f | seed wall mean=%.2fs | %.2fs (%d lanes)",
      spec.seeds, delivered, failures, batch.validCount(), batch.invalidCount(), slots.mean,
      slots.min, slots.max, rate.mean, wallSec.mean, wall, threads);
  for (const std::string& name : metricNames) {
    const Summary m = batch.summarizeMetric(name);
    row("  metric %-24s mean=%-12.4g min=%-12.4g max=%-12.4g", name.c_str(), m.mean, m.min,
        m.max);
    report.meta(name + "_mean", m.mean);
  }
  report.meta("delivered_count", delivered);
  report.meta("failure_count", failures);
  report.meta("valid_count", batch.validCount());
  report.meta("invalid_count", batch.invalidCount());
  report.meta("slots_mean", slots.mean);
  report.meta("slots_min", slots.min);
  report.meta("slots_max", slots.max);
  report.meta("decode_rate_mean", rate.mean);
  report.meta("wall_sec_mean", wallSec.mean);
  report.meta("wall_sec_min", wallSec.min);
  report.meta("wall_sec_max", wallSec.max);

  // 5. Optional per-seed CSV: fixed columns + one per named metric.
  const std::string csvPath = args.get("csv");
  if (!csvPath.empty()) {
    CsvWriter csv(csvPath);
    std::vector<std::string> headerCols = {"seed",     "deployed_n",      "slots",
                                           "decode_rate", "structure_slots", "delivered",
                                           "valid",    "wall_sec",        "error"};
    for (const std::string& name : metricNames) headerCols.push_back(name);
    csv.header(headerCols);
    for (const SeedResult& r : batch.perSeed) {
      std::vector<std::string> cols = {std::to_string(r.seed),
                                       std::to_string(r.deployedN),
                                       std::to_string(r.slots),
                                       formatDouble(r.decodeRate, 6),
                                       std::to_string(r.structureSlots),
                                       r.delivered ? "1" : "0",
                                       toString(r.validity),
                                       formatDouble(r.wallSec, 4),
                                       r.error};
      for (const std::string& name : metricNames) {
        const double* v = r.metrics.find(name);
        cols.push_back(v ? formatDouble(*v, 9) : "");
      }
      csv.row(cols);
    }
    std::printf("wrote %s (%zu rows)\n", csvPath.c_str(), csv.rows());
  }

  if (!finishTelemetryCli(args, wall)) return 1;
  if (!report.write(outDir)) return 1;
  if (failures > 0) return 1;
  if (delivered == 0) {
    std::fprintf(stderr, "no seed delivered\n");
    return 1;
  }
  return 0;
}
