#pragma once

#include <string>

#include "campaign/coordinator.h"

/// The campaign report writers.  The coordinator never holds per-seed
/// rows, so these writers stream the authoritative per-cell JSONs back
/// from disk: the campaign report splices each cell file's bytes
/// verbatim into the "cells" array (memory O(one cell)), and the CSV
/// loads one cell at a time through loadCellResult.  Every campaign —
/// inline or with forked workers — writes its cell files the same way,
/// so both outputs are identical across executors wall-time fields
/// aside, and one sweep_check baseline gates every mode (locked by
/// tests/test_campaign.cpp and the golden files under tests/golden/).
namespace mcs::campaign {

/// Writes `BENCH_sweep_<name>.json` into `dir` by splicing the per-cell
/// JSONs under `cellDir` (the campaign's outDir); reports the path in
/// `pathOut`.  Fails if any cell file is missing or unreadable — a
/// RESULT guarantees the file, so a hole means the run did not complete.
bool writeWorkQueueCampaignReport(const WorkQueueCampaign& campaign,
                                  const std::string& cellDir, const std::string& dir,
                                  std::string& pathOut, std::string& err);

/// Streams the long-form campaign CSV from the per-cell JSONs, one cell
/// in memory at a time: one row per (cell, seed, metric) with the
/// campaign's axis keys as leading columns —
/// `cell,label,<axis...>,seed,metric,value` — then per-cell mean/ci95
/// rows and, with --metrics, per-cell telemetry rows.  Metric names and
/// labels pass through csvEscape.
bool writeWorkQueueCampaignCsv(const WorkQueueCampaign& campaign, const std::string& cellDir,
                               const std::string& path, std::string& err);

}  // namespace mcs::campaign
