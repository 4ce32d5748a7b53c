#pragma once

#include <string>
#include <vector>

#include "util/json.h"

/// The perf-regression gate: diffs a candidate campaign JSON against a
/// committed baseline and reports violations when metric means drift or
/// wall time regresses beyond tolerance.  Cells are matched by label, so
/// a baseline survives axis reordering-free edits and sharded candidates
/// can be checked with allowMissing.
namespace mcs {

struct SweepCheckOptions {
  /// Allowed relative drift of every summary mean except wall_sec.  The
  /// per-seed pipeline is deterministic, so on the machine that produced
  /// the baseline this can be ~0; across compilers/libms keep some slack.
  double metricTol = 1e-6;
  /// Allowed relative wall-time *increase* (candidate may always be
  /// faster).  Wall time is noisy: keep this loose in CI.
  double wallTol = 0.5;
  /// Near-zero means compare against this absolute floor instead of a
  /// relative one, so 0 -> 1e-15 noise is not an infinite drift.
  double absFloor = 1e-9;
  /// Accept candidates that miss baseline cells (e.g. one shard of a
  /// campaign); extra candidate cells are always just noted.
  bool allowMissing = false;
};

struct SweepCheckResult {
  /// Failures: one human-readable line each.  Empty == gate passes.
  std::vector<std::string> violations;
  /// Non-fatal observations (extra cells, skipped metrics, ...).
  std::vector<std::string> notes;
  int cellsCompared = 0;
  int metricsCompared = 0;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Compares two campaign JSONs (the writeWorkQueueCampaignReport layout).
[[nodiscard]] SweepCheckResult compareCampaigns(const Json& baseline, const Json& candidate,
                                                const SweepCheckOptions& opts);

/// Compares two bench-report JSONs (the BenchReport {"rows": [...]}
/// layout, e.g. BENCH_campaign.json).  Rows are matched by the
/// concatenation of their string-valued columns — reports gated this way
/// must key each row uniquely by its string columns (BENCH_campaign uses
/// mode + config).  Numeric columns then compare by name: columns
/// containing "wall" are a perf gate (only an increase beyond wallTol
/// fails), columns containing "speedup" are a floor (only a decrease
/// beyond wallTol fails — a slower speedup IS a perf regression), and
/// everything else is a metricTol drift check.
[[nodiscard]] SweepCheckResult compareBenchRows(const Json& baseline, const Json& candidate,
                                                const SweepCheckOptions& opts);

}  // namespace mcs
