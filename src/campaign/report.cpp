#include "campaign/report.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "sweep/report.h"
#include "sweep/runner.h"
#include "telemetry/probes.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/stats.h"

namespace mcs::campaign {

namespace {

/// Reads one cell file's JSON bytes, trimmed of trailing whitespace so
/// they splice cleanly into an enclosing array.
bool readCellBytes(const std::string& path, std::string& bytes, std::string& err) {
  std::ifstream f(path);
  if (!f) {
    err = "cannot open cell file \"" + path + "\"";
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  bytes = buf.str();
  while (!bytes.empty() && (bytes.back() == '\n' || bytes.back() == '\r' ||
                            bytes.back() == ' ' || bytes.back() == '\t')) {
    bytes.pop_back();
  }
  if (bytes.empty()) {
    err = "cell file \"" + path + "\" is empty";
    return false;
  }
  return true;
}

/// The CSV's leading axis columns: the axis-key union over the cells in
/// first-appearance order (cells of one campaign share the same keys).
std::vector<std::string> campaignAxisKeys(const WorkQueueCampaign& campaign) {
  std::vector<std::string> axisKeys;
  for (const CellRecord& rec : campaign.cells) {
    for (const auto& [key, value] : rec.cell.assignments) {
      bool seen = false;
      for (const std::string& have : axisKeys) {
        if (have == key) {
          seen = true;
          break;
        }
      }
      if (!seen) axisKeys.push_back(key);
    }
  }
  return axisKeys;
}

/// Appends one cell's CSV rows (per-seed, summary, telemetry) under the
/// given axis-key header.
void appendCellCsvRows(std::ostream& f, const CellResult& cell,
                       const std::vector<std::string>& axisKeys) {
  std::vector<std::string> prefix = {std::to_string(cell.cell.index), cell.cell.label};
  for (const std::string& key : axisKeys) {
    std::string value;
    for (const auto& [k, v] : cell.cell.assignments) {
      if (k == key) {
        value = v;
        break;
      }
    }
    prefix.push_back(value);
  }
  for (const SeedResult& r : cell.batch.perSeed) {
    const auto emit = [&](const std::string& metric, double value) {
      std::vector<std::string> cols = prefix;
      cols.push_back(std::to_string(r.seed));
      cols.push_back(metric);
      cols.push_back(formatDouble(value, 9));
      f << csvJoin(cols) << '\n';
    };
    emit("slots", static_cast<double>(r.slots));
    emit("decode_rate", r.decodeRate);
    emit("structure_slots", static_cast<double>(r.structureSlots));
    emit("delivered", r.delivered ? 1.0 : 0.0);
    emit("wall_sec", r.wallSec);
    for (const auto& [name, value] : r.metrics.entries()) emit(name, value);
  }
  // Per-cell summary rows: the batch mean and its 95% CI half-width,
  // one pair per summarized metric, with the literal words "mean" /
  // "ci95" in the seed column (long-form consumers filter on it).
  for (const auto& [metric, summary] : cell.summaries()) {
    const auto emitSummary = [&](const char* stat, double value) {
      std::vector<std::string> cols = prefix;
      cols.emplace_back(stat);
      cols.push_back(metric);
      cols.push_back(formatDouble(value, 9));
      f << csvJoin(cols) << '\n';
    };
    emitSummary("mean", summary.mean);
    emitSummary("ci95", summary.ci95);
  }
  // Per-cell telemetry rows (engine counters / phase timings attributed
  // to this cell), with the literal word "telemetry" in the seed column.
  // Absent unless the campaign ran with --metrics, so default CSVs are
  // unchanged.
  for (const auto& [name, value] : cell.telemetry.entries()) {
    std::vector<std::string> cols = prefix;
    cols.emplace_back("telemetry");
    cols.push_back(name);
    cols.push_back(formatDouble(value, 9));
    f << csvJoin(cols) << '\n';
  }
}

}  // namespace

bool writeWorkQueueCampaignReport(const WorkQueueCampaign& campaign,
                                  const std::string& cellDir, const std::string& dir,
                                  std::string& pathOut, std::string& err) {
  pathOut = dir + "/BENCH_sweep_" + campaign.name + ".json";
  std::ofstream f(pathOut);
  if (!f) {
    err = "cannot write campaign report \"" + pathOut + "\"";
    return false;
  }

  // The envelope follows Json::dump's `"key": value, ` formatting, with
  // the cells array spliced from the per-cell files instead of
  // re-serialized: the cell file already holds cellToJson's canonical
  // bytes, and the whole report stays one parseable JSON document.
  Json meta = Json::object();
  meta.set("sweep", campaign.name);
  meta.set("base", campaign.baseName);
  meta.set("description", campaign.description);
  meta.set("total_cells", campaign.totalCells);
  meta.set("shard_index", campaign.shardIndex);
  meta.set("shard_count", campaign.shardCount);
  meta.set("cells_in_shard", static_cast<int>(campaign.cells.size()));
  meta.set("cells_cached", campaign.cachedCells());
  meta.set("failures", campaign.failures());
  meta.set("wall_sec", campaign.wallSec);

  f << "{\"name\": " << Json("sweep_" + campaign.name).dump() << ", \"kind\": \"sweep\""
    << ", \"meta\": " << meta.dump() << ", \"cells\": [";
  bool first = true;
  for (const CellRecord& rec : campaign.cells) {
    std::string bytes;
    if (!readCellBytes(cellFilePath(cellDir, campaign.name, rec.cell.index), bytes, err)) {
      return false;
    }
    if (!first) f << ", ";
    first = false;
    f << bytes;
  }
  f << ']';
  // Campaign-wide probe aggregate between "cells" and "telemetry": the
  // coordinator's tree-reduced root of the per-cell states (probe folds
  // commute, so it is independent of completion order).  Present only
  // when some cell captured probes.
  if (!campaign.probes.empty()) {
    f << ", \"probes\": " << telemetry::probesToJson(campaign.probes).dump();
  }
  // Campaign-wide telemetry (WorkQueueCampaign::telemetry), present only
  // when metrics were armed — the default report layout stays fixed.
  if (!campaign.telemetry.empty()) {
    Json tm = Json::object();
    for (const auto& [name, value] : campaign.telemetry.entries()) tm.set(name, value);
    f << ", \"telemetry\": " << tm.dump();
  }
  f << "}\n";
  f.flush();
  if (!f.good()) {
    err = "cannot write campaign report \"" + pathOut + "\"";
    return false;
  }
  return true;
}

bool writeWorkQueueCampaignCsv(const WorkQueueCampaign& campaign, const std::string& cellDir,
                               const std::string& path, std::string& err) {
  std::ofstream f(path);
  if (!f) {
    err = "cannot write campaign CSV \"" + path + "\"";
    return false;
  }
  // Axis keys come from the expansion the coordinator retained, so the
  // header is available before any cell file is touched.
  const std::vector<std::string> axisKeys = campaignAxisKeys(campaign);

  std::vector<std::string> header = {"cell", "label"};
  for (const std::string& key : axisKeys) header.push_back(key);
  header.insert(header.end(), {"seed", "metric", "value"});
  f << csvJoin(header) << '\n';

  for (const CellRecord& rec : campaign.cells) {
    CellResult cell;
    std::string loadErr;
    if (!loadCellResult(cellFilePath(cellDir, campaign.name, rec.cell.index), cell, loadErr)) {
      err = loadErr;
      return false;
    }
    appendCellCsvRows(f, cell, axisKeys);
  }
  f.flush();
  if (!f.good()) {
    err = "cannot write campaign CSV \"" + path + "\"";
    return false;
  }
  return true;
}

}  // namespace mcs::campaign
