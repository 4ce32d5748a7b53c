#include "store/query.h"

#include <algorithm>
#include <unordered_map>

#include "sweep/report.h"
#include "telemetry/telemetry.h"

namespace mcs::store {

namespace {

std::string namesList(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out.empty() ? "(none)" : out;
}

/// Equality filter against a string column, with an id memo so each
/// distinct interned id is resolved once per scan.
struct ColumnFilter {
  const std::uint32_t* col = nullptr;
  std::string value;
  std::unordered_map<std::uint32_t, bool> memo;

  bool matches(const StoreReader& reader, std::size_t row) {
    const std::uint32_t id = col[row];
    const auto it = memo.find(id);
    if (it != memo.end()) return it->second;
    const bool ok = reader.str(id) == value;
    memo.emplace(id, ok);
    return ok;
  }
};

bool resolveColumn(const StoreReader& reader, const std::string& key,
                   const std::uint32_t*& col, std::string& err) {
  if (key == "label") {
    col = reader.labelCol();
    return true;
  }
  const int a = reader.axisIndex(key);
  if (a < 0) {
    err = "axis \"" + key + "\" not in store (has: label, " +
          namesList(reader.axisNames()) + ")";
    return false;
  }
  col = reader.axisCol(static_cast<std::size_t>(a));
  return true;
}

bool resolveFilters(const StoreReader& reader,
                    const std::vector<std::pair<std::string, std::string>>& where,
                    std::vector<ColumnFilter>& filters, std::string& err) {
  filters.clear();
  filters.reserve(where.size());
  for (const auto& [key, value] : where) {
    ColumnFilter f;
    if (!resolveColumn(reader, key, f.col, err)) return false;
    f.value = value;
    filters.push_back(std::move(f));
  }
  return true;
}

constexpr const char* kTmPrefix = "tm.";

bool isTmMetric(const std::string& name) {
  return name.rfind(kTmPrefix, 0) == 0 && name.size() > 3;
}

}  // namespace

bool checkStoreUnion(const std::vector<const StoreReader*>& readers, std::string& err) {
  std::unordered_map<std::uint32_t, std::size_t> seen;  // cell index -> reader position
  for (std::size_t i = 0; i < readers.size(); ++i) {
    const StoreReader& reader = *readers[i];
    const std::uint32_t* idx = reader.cellIndexCol();
    for (std::size_t row = 0; row < reader.cells(); ++row) {
      const auto it = seen.find(idx[row]);
      if (it != seen.end()) {
        err = "cell index " + std::to_string(idx[row]) + " appears in store #" +
              std::to_string(it->second + 1) + " and store #" + std::to_string(i + 1) +
              " — union requires disjoint shards";
        return false;
      }
      seen.emplace(idx[row], i);
    }
  }
  return true;
}

bool runStoreQueryUnion(const std::vector<const StoreReader*>& readers,
                        const StoreQuery& query, std::vector<QueryGroup>& out,
                        std::string& err) {
  static const telemetry::TimerId kScan = telemetry::timerId("query.scan");
  static const telemetry::CounterId kSketchMerges =
      telemetry::counterId("store.sketch_merges");
  out.clear();
  if (readers.empty()) {
    err = "no stores to query";
    return false;
  }
  if (!checkStoreUnion(readers, err)) return false;

  // Stores of one campaign may carry different metric sets (shards of a
  // mixed-protocol sweep): the default selection is their union, first
  // store first, and a metric a store lacks reads as empty there.  Only a
  // metric no store has is an error.
  std::vector<std::string> metricNames = query.metrics;
  if (metricNames.empty()) {
    for (const StoreReader* rp : readers) {
      for (const std::string& name : rp->metricNames()) {
        if (std::find(metricNames.begin(), metricNames.end(), name) == metricNames.end()) {
          metricNames.push_back(name);
        }
      }
    }
  }
  bool anyTm = false;
  for (const std::string& name : metricNames) {
    anyTm = anyTm || isTmMetric(name);
    const bool held = isTmMetric(name) ||
                      std::any_of(readers.begin(), readers.end(), [&](const StoreReader* rp) {
                        return rp->metricIndex(name) >= 0;
                      });
    if (!held) {
      err = "metric \"" + name + "\" not in any store (has: " +
            namesList(readers.front()->metricNames()) + "; tm.<counter> selects telemetry)";
      return false;
    }
  }

  const telemetry::PhaseTimer scan(kScan);
  std::unordered_map<std::string, std::size_t> groupOf;  // group key -> out index
  const auto groupFor = [&](const std::string& key, double alpha,
                            std::uint32_t threshold) -> QueryGroup& {
    const auto it = groupOf.find(key);
    if (it != groupOf.end()) return out[it->second];
    QueryGroup g;
    g.key = key;
    g.stats.reserve(metricNames.size());
    for (const std::string& name : metricNames) {
      g.stats.emplace_back(name, StreamingStats(alpha, threshold));
    }
    groupOf.emplace(key, out.size());
    out.push_back(std::move(g));
    return out.back();
  };

  for (const StoreReader* rp : readers) {
    const StoreReader& reader = *rp;
    // Per-store resolution: metric positions (and axis columns) may
    // differ between stores even when the names agree.
    // -1 = not in this store (reads as empty), -2 = telemetry counter.
    std::vector<int> metricIdx(metricNames.size(), -2);
    for (std::size_t k = 0; k < metricNames.size(); ++k) {
      if (!isTmMetric(metricNames[k])) metricIdx[k] = reader.metricIndex(metricNames[k]);
    }
    std::vector<ColumnFilter> filters;
    if (!resolveFilters(reader, query.where, filters, err)) return false;
    const std::uint32_t* groupCol = nullptr;
    if (!query.groupBy.empty() && !resolveColumn(reader, query.groupBy, groupCol, err)) {
      return false;
    }
    const double alpha = reader.header().sketchAlpha;
    const std::uint32_t threshold = reader.header().sketchThreshold;

    for (std::size_t row = 0; row < reader.cells(); ++row) {
      bool pass = true;
      for (ColumnFilter& f : filters) {
        if (!f.matches(reader, row)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      QueryGroup& group =
          groupFor(groupCol != nullptr ? reader.str(groupCol[row]) : "all", alpha, threshold);
      ++group.cells;
      std::vector<std::pair<std::string, double>> tmEntries;
      if (anyTm && !reader.telemetryAt(row, tmEntries, err)) return false;
      for (std::size_t k = 0; k < metricNames.size(); ++k) {
        StreamingStats& acc = group.stats[k].second;
        if (metricIdx[k] == -1) continue;
        if (metricIdx[k] == -2) {
          // Telemetry metric: the cell's counter value is one sample
          // (absent counter = 0.0, e.g. a cause that never fired).  The
          // blob keys carry the "tm." prefix already, so the selector name
          // is the lookup key as-is.
          const std::string& key = metricNames[k];
          double value = 0.0;
          for (const auto& [name, v] : tmEntries) {
            if (name == key) {
              value = v;
              break;
            }
          }
          acc.add(value);
          continue;
        }
        StreamingStats rowStats;
        if (!reader.statsAt(static_cast<std::size_t>(metricIdx[k]), row, rowStats, err)) {
          return false;
        }
        if (acc.quantiles.sketchMode() || rowStats.quantiles.sketchMode()) {
          telemetry::counterAdd(kSketchMerges);
        }
        acc.merge(rowStats);
      }
    }
  }
  return true;
}

bool runStoreQuery(const StoreReader& reader, const StoreQuery& query,
                   std::vector<QueryGroup>& out, std::string& err) {
  return runStoreQueryUnion({&reader}, query, out, err);
}

bool mergeStoreProbes(const std::vector<const StoreReader*>& readers,
                      const std::vector<std::pair<std::string, std::string>>& where,
                      mcs::telemetry::ProbeState& out, std::string& err) {
  out = mcs::telemetry::ProbeState();
  if (readers.empty()) {
    err = "no stores to query";
    return false;
  }
  if (!checkStoreUnion(readers, err)) return false;
  for (const StoreReader* rp : readers) {
    const StoreReader& reader = *rp;
    std::vector<ColumnFilter> filters;
    if (!resolveFilters(reader, where, filters, err)) return false;
    for (std::size_t row = 0; row < reader.cells(); ++row) {
      bool pass = true;
      for (ColumnFilter& f : filters) {
        if (!f.matches(reader, row)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      mcs::telemetry::ProbeState cell;
      if (!reader.probesAt(row, cell, err)) return false;
      out.merge(cell);
    }
  }
  return true;
}

bool storeSummariesJson(const StoreReader& reader, Json& out, std::string& err) {
  const std::string campaign = reader.campaignName();
  out = Json::object();
  out.set("name", "sweep_" + campaign);
  out.set("kind", "sweep");
  Json meta = Json::object();
  meta.set("sweep", campaign);
  meta.set("base", reader.baseName());
  meta.set("total_cells", static_cast<int>(reader.header().totalCells));
  meta.set("shard_index", static_cast<int>(reader.header().shardIndex));
  meta.set("shard_count", static_cast<int>(reader.header().shardCount));
  meta.set("cells_in_shard", reader.cells());
  meta.set("source", "store");
  out.set("meta", std::move(meta));

  Json cells = Json::array();
  for (std::size_t row = 0; row < reader.cells(); ++row) {
    Json cell = Json::object();
    cell.set("index", static_cast<int>(reader.cellIndexCol()[row]));
    cell.set("label", reader.str(reader.labelCol()[row]));
    Json assigns = Json::object();
    for (std::size_t a = 0; a < reader.axisNames().size(); ++a) {
      assigns.set(reader.axisNames()[a], reader.str(reader.axisCol(a)[row]));
    }
    cell.set("assignments", std::move(assigns));
    cell.set("seeds", static_cast<int>(reader.seedsCol()[row]));
    cell.set("failures", static_cast<int>(reader.failuresCol()[row]));
    cell.set("delivered", static_cast<int>(reader.deliveredCol()[row]));
    cell.set("valid", static_cast<int>(reader.validCol()[row]));
    cell.set("invalid", static_cast<int>(reader.invalidCol()[row]));
    Json summaries = Json::object();
    for (std::size_t m = 0; m < reader.metricNames().size(); ++m) {
      StreamingStats stats;
      if (!reader.statsAt(m, row, stats, err)) return false;
      summaries.set(reader.metricNames()[m], summaryToJson(stats.summary()));
    }
    cell.set("summaries", std::move(summaries));
    cells.push_back(std::move(cell));
  }
  out.set("cells", std::move(cells));
  return true;
}

}  // namespace mcs::store
