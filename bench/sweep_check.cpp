// sweep_check: the perf-regression gate over sweep campaign stores.
//
//   sweep_check --baseline=sweeps/baseline.json --candidate-store=BENCH_sweep_smoke.store
//               [--metric-tol=1e-6] [--wall-tol=0.5] [--allow-missing]
//   sweep_check --baseline=<campaign.json> --candidate=<campaign.json>
//
// --candidate-store gates a columnar campaign store (store/reader.h): the
// store's summaries view is rebuilt from the per-cell accumulators and
// compared cell-for-cell against the baseline — the store is the source
// of truth, the JSON a view of it (`sweep_query <store> --cells
// --format=json` prints that view, which is how baselines are captured).
// --candidate compares two JSON files of the same layout.
//
// Matches cells by label and fails (exit 1) when any summary mean drifts
// beyond --metric-tol relative, when wall time regresses beyond
// --wall-tol relative (faster is always fine), or when a cell's
// failure/delivery/validity counters get worse.  Exit 2 on unreadable or
// malformed inputs, so a missing baseline cannot pass as "no drift".
//
// Also accepts BenchReport {"rows": [...]} artifacts (e.g.
// BENCH_campaign.json): the layout is auto-detected from the baseline,
// rows match by their string columns, "wall"/"speedup" columns gate perf
// with --wall-tol, everything else drifts with --metric-tol.

#include <cstdio>

#include "store/query.h"
#include "store/reader.h"
#include "sweep/check.h"
#include "util/args.h"

using namespace mcs;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string baselinePath = args.get("baseline");
  const std::string candidatePath = args.get("candidate");
  const std::string candidateStorePath = args.get("candidate-store");
  if (baselinePath.empty() || (candidatePath.empty() && candidateStorePath.empty())) {
    std::fprintf(stderr,
                 "usage: sweep_check --baseline=<campaign.json> "
                 "(--candidate=<campaign.json> | --candidate-store=<campaign.store>) "
                 "[--metric-tol=R] [--wall-tol=R] [--allow-missing]\n");
    return 2;
  }
  if (!candidatePath.empty() && !candidateStorePath.empty()) {
    std::fprintf(stderr, "sweep_check: pass --candidate or --candidate-store, not both\n");
    return 2;
  }

  SweepCheckOptions opts;
  opts.metricTol = args.getDouble("metric-tol", opts.metricTol);
  opts.wallTol = args.getDouble("wall-tol", opts.wallTol);
  opts.allowMissing = args.getBool("allow-missing");

  Json baseline, candidate;
  std::string err;
  if (!Json::parseFile(baselinePath, baseline, err)) {
    std::fprintf(stderr, "baseline: %s\n", err.c_str());
    return 2;
  }
  if (!candidateStorePath.empty()) {
    store::StoreReader reader;
    if (!reader.open(candidateStorePath, err)) {
      std::fprintf(stderr, "candidate store: %s\n", err.c_str());
      return 2;
    }
    if (!store::storeSummariesJson(reader, candidate, err)) {
      std::fprintf(stderr, "candidate store: %s\n", err.c_str());
      return 2;
    }
  } else if (!Json::parseFile(candidatePath, candidate, err)) {
    std::fprintf(stderr, "candidate: %s\n", err.c_str());
    return 2;
  }

  // Layout auto-detection: campaign reports carry "cells", bench reports
  // carry "rows".  The baseline decides; a candidate of the other layout
  // simply compares as all-missing (which fails, as it should).
  const bool rowsLayout = baseline.find("rows") != nullptr && baseline.find("cells") == nullptr;
  const SweepCheckResult result = rowsLayout ? compareBenchRows(baseline, candidate, opts)
                                             : compareCampaigns(baseline, candidate, opts);
  for (const std::string& note : result.notes) std::printf("note: %s\n", note.c_str());
  for (const std::string& v : result.violations) std::printf("FAIL: %s\n", v.c_str());
  std::printf("sweep_check: %d cells, %d metrics compared, %zu violations -> %s\n",
              result.cellsCompared, result.metricsCompared, result.violations.size(),
              result.ok() ? "PASS" : "FAIL");
  return result.ok() ? 0 : 1;
}
