#pragma once

#include <string>
#include <utility>
#include <vector>

#include "scenario/runner.h"
#include "sweep/expand.h"
#include "telemetry/probes.h"
#include "util/sketch.h"

/// Per-cell campaign results: the seed batch of one sweep cell, its
/// statistics, and the per-cell JSON path that resume trusts.  Cells run
/// through the campaign coordinator (campaign/coordinator.h), inline or in
/// forked workers.
namespace mcs {

/// One executed (or resumed) cell: the cell plus its seed batch.
struct CellResult {
  SweepCell cell;
  /// The cell file's stored scenarioToKeyValues fingerprint (set by
  /// loadCellResult); resume only trusts a file whose fingerprint matches
  /// the freshly expanded cell exactly.
  std::string specFingerprint;
  ScenarioBatchResult batch;
  /// Telemetry delta attributed to this cell (counter totals plus
  /// per-phase timer seconds/counts, "tm."-prefixed), captured around the
  /// cell's seed batch when telemetry is enabled; empty otherwise — and
  /// empty means the cell JSON/CSV layout is byte-identical to the
  /// pre-telemetry engine.
  MetricMap telemetry;
  /// Probe aggregate attributed to this cell (margin/interference sketches
  /// plus the SlotSeries, telemetry/probes.h), captured by a
  /// resetProbes/snapshotProbes pair around the cell's seed batch when
  /// probes are armed; empty otherwise — and empty keeps the cell JSON
  /// byte-identical to the pre-probes layout.
  telemetry::ProbeState probes;

  /// The summary table the reports emit: slots, decode_rate,
  /// structure_slots, wall_sec, then every named protocol metric.
  /// Derived from cellStats(), so reports, RESULT frames, and store rows
  /// all read the same accumulators.
  [[nodiscard]] std::vector<std::pair<std::string, Summary>> summaries() const;
};

/// Per-metric streaming accumulators for one cell, in display order:
/// slots / decode_rate / structure_slots over non-failed seeds, wall_sec
/// over all seeds, then every named protocol metric over the non-failed
/// seeds that carry it.  The single per-cell statistics path — summaries()
/// renders it, the campaign workers serialize it, the store writes it.
[[nodiscard]] NamedStats cellStats(const CellResult& cell);

/// The per-cell JSON path: where cells are written and resume looks.
[[nodiscard]] std::string cellFilePath(const std::string& outDir, const std::string& campaign,
                                       int cellIndex);

/// Whether a loaded per-cell JSON is trustworthy as a cache of `cell`:
/// same label, same complete spec fingerprint (any base/fixed-key/axis
/// edit changes it), complete seed batch.  The campaign coordinator's
/// pre-lease resume pass.
[[nodiscard]] bool cellCacheMatches(const CellResult& cached, const SweepCell& cell);

}  // namespace mcs
