#pragma once

#include <string>

#include "sweep/runner.h"
#include "util/json.h"

/// Per-cell JSON serialization: the cell files every campaign writes (the
/// per-seed rows, and the resume substrate).
namespace mcs {

/// One cell as JSON: identity (index/label/assignments/scenario), batch
/// counters, the per-metric summary table, and the per-seed rows.
[[nodiscard]] Json cellToJson(const CellResult& cell);

/// A Summary as the JSON object the cell "summaries" block uses
/// (count/mean/stddev/ci95/min/p50/p95/max).  Shared with the store's
/// summaries view (storeSummariesJson), so the committed baselines read
/// the same blocks.
[[nodiscard]] Json summaryToJson(const Summary& s);

/// Zeroes every wall-clock field of a cell JSON tree in place (per-seed
/// "wall_sec" values and the "wall_sec" summary block).  Wall time is
/// the single nondeterministic field in an otherwise bit-reproducible
/// cell file, so the byte-identity tests compare dumps after this
/// canonicalization.
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
