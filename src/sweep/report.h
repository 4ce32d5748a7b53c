#pragma once

#include <string>

#include "sweep/runner.h"
#include "util/json.h"

/// Per-cell JSON serialization: the cell files every campaign writes (the
/// resume substrate, and the bytes campaign/report.h splices into the
/// campaign report).  The layout is locked by a golden-file test;
/// sweep_check consumes the campaign JSON, so layout changes need a
/// baseline refresh.
namespace mcs {

/// One cell as JSON: identity (index/label/assignments/scenario), batch
/// counters, the per-metric summary table, and the per-seed rows.
[[nodiscard]] Json cellToJson(const CellResult& cell);

/// A Summary as the JSON object the cell "summaries" block uses
/// (count/mean/stddev/ci95/min/p50/p95/max).  Shared with the store's
/// summaries view, so store-backed and file-backed reports match.
[[nodiscard]] Json summaryToJson(const Summary& s);

/// Zeroes every wall-clock field of a cell or campaign JSON tree in
/// place (per-seed "wall_sec" values, the "wall_sec" summary block, and
/// campaign meta wall time).  Wall time is the single nondeterministic
/// field in an otherwise bit-reproducible report, so the byte-identity
/// tests and tooling compare dumps after this canonicalization.
void stripWallTimes(Json& j);

/// Writes one per-cell JSON (parent directory must exist).  The write is
/// atomic — bytes land in `<path>.tmp` and rename() into place — so a
/// killed worker can leave a stale temp file but never a truncated
/// `cell_<i>.json` for --resume to misread.
bool writeCellFile(const CellResult& cell, const std::string& path, std::string& err);

/// Parses a per-cell JSON back into a CellResult (batch fully populated,
/// summaries recomputable).  The inverse of writeCellFile.
bool loadCellResult(const std::string& path, CellResult& out, std::string& err);

}  // namespace mcs
