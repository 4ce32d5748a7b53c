// sweep_query: interactive analytics over columnar campaign stores.
//
//   sweep_query <campaign.store> [<more.store> ...]
//               [--schema] [--cells]
//               [--select=metric1,metric2] [--where=axis=value,...]
//               [--group-by=axis] [--series] [--pivot=rowAxis,colAxis]
//               [--format=table|csv|json]
//
// Stores are memory-mapped (store/reader.h); a query touches only the
// columns it names, so asking one question of a million-cell campaign
// costs a column scan, not a full-report parse.  Several stores query as
// one union (the intended shape: shards of one campaign) — cell indices
// must be disjoint, overlap is an error.  Aggregates re-merge the
// per-cell accumulator states: count/mean/stddev/ci95/min/max/sum are
// exact (bit-identical to the campaign reduction), p50/p95 are exact
// below the sketch threshold and within the store's alpha above it.
//
//   --schema     print each store's header, axes, and metrics, then exit
//   --cells      list per-cell rows (index, label, axes, counters);
//                with --format=json, print the store's campaign-summaries
//                view instead — the layout sweep_check --baseline reads,
//                so `sweep_query <store> --cells --format=json >
//                sweeps/<name>_baseline.json` re-captures a baseline
//   --select     metrics to aggregate (default: all, the union over the
//                stores; a store lacking a metric reads as empty).
//                "tm.<counter>" selects a per-cell telemetry counter
//                (absent = 0), e.g. tm.cause.noise_limited — the
//                decode-attribution columns
//   --where      conjunctive equality filters on axis values (or label=...)
//   --group-by   one group per distinct value of this axis ("label" works)
//   --series     merge the where-filtered cells' probe blobs (--probes
//                runs) and print the slot time-series: per-window
//                delivery rate, active transmitters, SINR-margin
//                quantiles, protocol progress — plus the attribution
//                sketches.  --format=json emits the merged probe state
//                (telemetry/probes.h JSON layout)
//   --pivot      axis x axis table of one --select metric's mean
//   --format     table (default), csv, or json
//
// Exit 0 on success, 1 on bad queries (unknown metric/axis, overlapping
// stores, probe-less --series), 2 on usage or unreadable stores.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "store/query.h"
#include "store/reader.h"
#include "sweep/report.h"
#include "telemetry/probes.h"
#include "util/args.h"

using namespace mcs;

namespace {

std::vector<std::string> splitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool parseWhere(const std::string& s,
                std::vector<std::pair<std::string, std::string>>& out, std::string& err) {
  for (const std::string& clause : splitList(s, ',')) {
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      err = "--where clause \"" + clause + "\" is not axis=value";
      return false;
    }
    out.emplace_back(clause.substr(0, eq), clause.substr(eq + 1));
  }
  return true;
}

int printSchema(const store::StoreReader& reader) {
  const store::StoreHeader& h = reader.header();
  std::printf("campaign:  %s (base %s)\n", reader.campaignName().c_str(),
              reader.baseName().c_str());
  std::printf("cells:     %zu in store (shard %u/%u of %u total)\n", reader.cells(),
              h.shardIndex, h.shardCount, h.totalCells);
  std::printf("file:      %" PRIu64 " bytes, format v%u%s\n", reader.fileBytes(), h.version,
              (h.flags & store::kFlagWallStripped) != 0 ? ", wall times stripped" : "");
  std::printf("sketch:    alpha %g, exact below %u samples\n", h.sketchAlpha,
              h.sketchThreshold);
  std::printf("axes:     ");
  for (const std::string& a : reader.axisNames()) std::printf(" %s", a.c_str());
  std::printf("\nmetrics:  ");
  for (const std::string& m : reader.metricNames()) std::printf(" %s", m.c_str());
  std::printf("\n");
  return 0;
}

/// --cells --format=json: the store's campaign-summaries view, the
/// layout sweep_check --baseline reads, so it re-captures a baseline.
int printCellsJson(const store::StoreReader& reader) {
  Json view;
  std::string err;
  if (!store::storeSummariesJson(reader, view, err)) {
    std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", view.dump().c_str());
  return 0;
}

int printCells(const store::StoreReader& reader) {
  std::printf("%-6s %-32s", "cell", "label");
  for (const std::string& a : reader.axisNames()) std::printf(" %12s", a.c_str());
  std::printf(" %6s %5s %9s %6s %7s\n", "seeds", "fail", "delivered", "valid", "invalid");
  for (std::size_t row = 0; row < reader.cells(); ++row) {
    std::printf("%-6u %-32s", reader.cellIndexCol()[row],
                reader.str(reader.labelCol()[row]).c_str());
    for (std::size_t a = 0; a < reader.axisNames().size(); ++a) {
      std::printf(" %12s", reader.str(reader.axisCol(a)[row]).c_str());
    }
    std::printf(" %6u %5u %9u %6u %7u\n", reader.seedsCol()[row], reader.failuresCol()[row],
                reader.deliveredCol()[row], reader.validCol()[row],
                reader.invalidCol()[row]);
  }
  return 0;
}

void printTable(const std::string& groupName, const std::vector<store::QueryGroup>& groups) {
  std::printf("%-20s %8s %-24s %10s %12s %12s %12s %12s %12s %12s\n", groupName.c_str(),
              "cells", "metric", "count", "mean", "stddev", "min", "p50", "p95", "max");
  for (const store::QueryGroup& g : groups) {
    for (const auto& [name, s] : g.stats) {
      const Summary sum = s.summary();
      std::printf("%-20s %8" PRIu64 " %-24s %10zu %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g\n",
                  g.key.c_str(), g.cells, name.c_str(), sum.count, sum.mean, sum.stddev,
                  sum.min, sum.median, sum.p95, sum.max);
    }
  }
}

void printCsv(const std::string& groupName, const std::vector<store::QueryGroup>& groups) {
  std::printf("%s,cells,metric,count,mean,stddev,ci95,min,p50,p95,max\n", groupName.c_str());
  for (const store::QueryGroup& g : groups) {
    for (const auto& [name, s] : g.stats) {
      const Summary sum = s.summary();
      std::printf("%s,%" PRIu64 ",%s,%zu,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                  g.key.c_str(), g.cells, name.c_str(), sum.count, sum.mean, sum.stddev,
                  sum.ci95, sum.min, sum.median, sum.p95, sum.max);
    }
  }
}

void printJson(const std::string& groupName, const std::vector<store::QueryGroup>& groups) {
  Json out = Json::array();
  for (const store::QueryGroup& g : groups) {
    Json jg = Json::object();
    jg.set(groupName, g.key);
    jg.set("cells", static_cast<double>(g.cells));
    Json metrics = Json::object();
    for (const auto& [name, s] : g.stats) metrics.set(name, summaryToJson(s.summary()));
    jg.set("metrics", std::move(metrics));
    out.push_back(std::move(jg));
  }
  std::printf("%s\n", out.dump().c_str());
}

void printSketchLine(const char* name, const QuantileSketch& s) {
  if (s.count() == 0) {
    std::printf("%-10s (no samples)\n", name);
    return;
  }
  std::printf("%-10s count=%-10" PRIu64 " p10=%9.3f p50=%9.3f p90=%9.3f\n", name,
              s.count(), s.quantile(0.10), s.quantile(0.50), s.quantile(0.90));
}

/// The --series view: per-window time evolution of the merged probe
/// state, plus the campaign-wide attribution sketches.
int printSeries(const telemetry::ProbeState& probes, const std::string& format) {
  if (probes.empty()) {
    std::fprintf(stderr,
                 "sweep_query: no probe data in the selected cells — was the campaign "
                 "run with --probes?\n");
    return 1;
  }
  if (format == "json") {
    std::printf("%s\n", telemetry::probesToJson(probes).dump().c_str());
    return 0;
  }
  const telemetry::SlotSeries& series = probes.series;
  const std::uint64_t span = series.span();
  const std::size_t used = series.windowsUsed();
  if (format == "csv") {
    std::printf(
        "window,slot_start,span,slots,listens,decodes,rate,tx,margin_p10,margin_p50,"
        "margin_p90,progress\n");
    for (std::size_t i = 0; i < used; ++i) {
      const telemetry::SlotSeries::Window& w = series.windows()[i];
      const double rate =
          w.listens > 0 ? static_cast<double>(w.decodes) / static_cast<double>(w.listens)
                        : 0.0;
      const double progress =
          w.progressDen > 0
              ? static_cast<double>(w.progressNum) / static_cast<double>(w.progressDen)
              : 0.0;
      std::printf("%zu,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  ",%.17g,%" PRIu64 ",%.17g,%.17g,%.17g,%.17g\n",
                  i, static_cast<std::uint64_t>(i) * span, span, w.slots, w.listens,
                  w.decodes, rate, w.txIntents, w.margin.quantile(0.10),
                  w.margin.quantile(0.50), w.margin.quantile(0.90), progress);
    }
    return 0;
  }
  std::printf("decode attribution sketches (dB):\n");
  printSketchLine("margin", probes.marginDb);
  printSketchLine("near_intf", probes.nearDb);
  printSketchLine("far_intf", probes.farDb);
  std::printf("\nslot series: span %" PRIu64 " slot(s)/window, %zu window(s)\n\n", span,
              used);
  std::printf("%-4s %10s %8s %10s %10s %7s %10s %9s %9s %9s %9s\n", "win", "slot0",
              "slots", "listens", "decodes", "rate", "tx", "m.p10", "m.p50", "m.p90",
              "progress");
  for (std::size_t i = 0; i < used; ++i) {
    const telemetry::SlotSeries::Window& w = series.windows()[i];
    const double rate =
        w.listens > 0 ? static_cast<double>(w.decodes) / static_cast<double>(w.listens)
                      : 0.0;
    std::printf("%-4zu %10" PRIu64 " %8" PRIu64 " %10" PRIu64 " %10" PRIu64 " %7.3f %10"
                PRIu64,
                i, static_cast<std::uint64_t>(i) * span, w.slots, w.listens, w.decodes,
                rate, w.txIntents);
    if (w.margin.count() > 0) {
      std::printf(" %9.2f %9.2f %9.2f", w.margin.quantile(0.10), w.margin.quantile(0.50),
                  w.margin.quantile(0.90));
    } else {
      std::printf(" %9s %9s %9s", "-", "-", "-");
    }
    if (w.progressDen > 0) {
      std::printf(" %9.3f\n",
                  static_cast<double>(w.progressNum) / static_cast<double>(w.progressDen));
    } else {
      std::printf(" %9s\n", "-");
    }
  }
  return 0;
}

/// The --pivot view: rowAxis x colAxis table of one metric's mean over
/// the where-filtered cells (a "tm." name reads the telemetry blob,
/// absent = 0).  Keys appear in first-encounter order scanning the
/// stores in argument order.
int runPivot(const std::vector<const store::StoreReader*>& readers,
             const std::string& pivotArg, const std::string& metricName,
             const std::vector<std::pair<std::string, std::string>>& where,
             const std::string& format) {
  std::string err;
  const std::vector<std::string> axes = splitList(pivotArg, ',');
  if (axes.size() != 2) {
    std::fprintf(stderr, "sweep_query: --pivot needs rowAxis,colAxis\n");
    return 2;
  }
  if (metricName.empty()) {
    std::fprintf(stderr, "sweep_query: --pivot needs exactly one --select metric\n");
    return 2;
  }
  if (!store::checkStoreUnion(readers, err)) {
    std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
    return 1;
  }
  // Telemetry blob keys carry the "tm." prefix, so the selector matches
  // them verbatim.
  const bool isTm = metricName.rfind("tm.", 0) == 0 && metricName.size() > 3;
  const std::string& tmKey = metricName;
  if (!isTm && std::none_of(readers.begin(), readers.end(), [&](const store::StoreReader* rp) {
        return rp->metricIndex(metricName) >= 0;
      })) {
    std::fprintf(stderr, "sweep_query: metric \"%s\" not in any store\n", metricName.c_str());
    return 1;
  }

  std::vector<std::string> rowKeys, colKeys;
  std::map<std::pair<std::size_t, std::size_t>, StreamingStats> acc;
  const auto keyIndex = [](std::vector<std::string>& keys, const std::string& k) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == k) return i;
    }
    keys.push_back(k);
    return keys.size() - 1;
  };

  for (const store::StoreReader* rp : readers) {
    const store::StoreReader& reader = *rp;
    const auto axisColOf = [&](const std::string& name,
                               const std::uint32_t*& col) -> bool {
      if (name == "label") {
        col = reader.labelCol();
        return true;
      }
      const int a = reader.axisIndex(name);
      if (a < 0) {
        std::fprintf(stderr, "sweep_query: axis \"%s\" not in store\n", name.c_str());
        return false;
      }
      col = reader.axisCol(static_cast<std::size_t>(a));
      return true;
    };
    const std::uint32_t* rowCol = nullptr;
    const std::uint32_t* colCol = nullptr;
    if (!axisColOf(axes[0], rowCol) || !axisColOf(axes[1], colCol)) return 1;
    std::vector<const std::uint32_t*> whereCols(where.size(), nullptr);
    for (std::size_t i = 0; i < where.size(); ++i) {
      if (!axisColOf(where[i].first, whereCols[i])) return 1;
    }
    // A store without the metric (a shard of a mixed-protocol sweep)
    // contributes its keys but no samples.
    const int metricIdx = isTm ? -1 : reader.metricIndex(metricName);
    for (std::size_t row = 0; row < reader.cells(); ++row) {
      bool pass = true;
      for (std::size_t i = 0; i < where.size(); ++i) {
        if (reader.str(whereCols[i][row]) != where[i].second) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      const std::size_t ri = keyIndex(rowKeys, reader.str(rowCol[row]));
      const std::size_t ci = keyIndex(colKeys, reader.str(colCol[row]));
      StreamingStats& cell = acc[{ri, ci}];
      if (isTm) {
        std::vector<std::pair<std::string, double>> entries;
        if (!reader.telemetryAt(row, entries, err)) {
          std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
          return 1;
        }
        double value = 0.0;
        for (const auto& [name, v] : entries) {
          if (name == tmKey) {
            value = v;
            break;
          }
        }
        cell.add(value);
      } else if (metricIdx >= 0) {
        StreamingStats rowStats;
        if (!reader.statsAt(static_cast<std::size_t>(metricIdx), row, rowStats, err)) {
          std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
          return 1;
        }
        cell.merge(rowStats);
      }
    }
  }

  const auto meanAt = [&](std::size_t ri, std::size_t ci, double& mean) {
    const auto it = acc.find({ri, ci});
    if (it == acc.end() || it->second.moments.count() == 0) return false;
    mean = it->second.moments.mean();
    return true;
  };

  if (format == "json") {
    Json out = Json::array();
    for (std::size_t ri = 0; ri < rowKeys.size(); ++ri) {
      Json jr = Json::object();
      jr.set(axes[0], rowKeys[ri]);
      for (std::size_t ci = 0; ci < colKeys.size(); ++ci) {
        double mean = 0.0;
        if (meanAt(ri, ci, mean)) jr.set(colKeys[ci], mean);
      }
      out.push_back(std::move(jr));
    }
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }
  if (format == "csv") {
    std::printf("%s", axes[0].c_str());
    for (const std::string& c : colKeys) std::printf(",%s", c.c_str());
    std::printf("\n");
    for (std::size_t ri = 0; ri < rowKeys.size(); ++ri) {
      std::printf("%s", rowKeys[ri].c_str());
      for (std::size_t ci = 0; ci < colKeys.size(); ++ci) {
        double mean = 0.0;
        if (meanAt(ri, ci, mean)) {
          std::printf(",%.17g", mean);
        } else {
          std::printf(",");
        }
      }
      std::printf("\n");
    }
    return 0;
  }
  std::printf("%s: mean by %s (rows) x %s (cols)\n\n", metricName.c_str(), axes[0].c_str(),
              axes[1].c_str());
  std::printf("%-16s", axes[0].c_str());
  for (const std::string& c : colKeys) std::printf(" %12s", c.c_str());
  std::printf("\n");
  for (std::size_t ri = 0; ri < rowKeys.size(); ++ri) {
    std::printf("%-16s", rowKeys[ri].c_str());
    for (std::size_t ci = 0; ci < colKeys.size(); ++ci) {
      double mean = 0.0;
      if (meanAt(ri, ci, mean)) {
        std::printf(" %12.6g", mean);
      } else {
        std::printf(" %12s", "-");
      }
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: sweep_query <campaign.store> [<more.store> ...] [--schema] "
                 "[--cells] [--select=m1,m2] [--where=axis=value,...] [--group-by=axis] "
                 "[--series] [--pivot=rowAxis,colAxis] [--format=table|csv|json]\n");
    return 2;
  }

  std::vector<std::unique_ptr<store::StoreReader>> owned;
  std::vector<const store::StoreReader*> readers;
  std::string err;
  for (const std::string& path : args.positional()) {
    auto reader = std::make_unique<store::StoreReader>();
    if (!reader->open(path, err)) {
      std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
      return 2;
    }
    readers.push_back(reader.get());
    owned.push_back(std::move(reader));
  }

  const std::string format = args.get("format", "table");
  if (format != "table" && format != "csv" && format != "json") {
    std::fprintf(stderr, "sweep_query: unknown --format \"%s\"\n", format.c_str());
    return 2;
  }
  if (args.getBool("cells") && format == "json") {
    // One summaries view per store, one per line.
    for (const store::StoreReader* reader : readers) {
      if (printCellsJson(*reader) != 0) return 1;
    }
    return 0;
  }
  if (args.getBool("schema") || args.getBool("cells")) {
    for (std::size_t i = 0; i < readers.size(); ++i) {
      if (readers.size() > 1) {
        std::printf("%s== %s ==\n", i > 0 ? "\n" : "", args.positional()[i].c_str());
      }
      if (args.getBool("schema")) (void)printSchema(*readers[i]);
      if (args.getBool("cells")) (void)printCells(*readers[i]);
    }
    return 0;
  }

  std::vector<std::pair<std::string, std::string>> where;
  if (!parseWhere(args.get("where"), where, err)) {
    std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
    return 2;
  }
  const std::vector<std::string> select = splitList(args.get("select"), ',');

  if (args.getBool("series")) {
    telemetry::ProbeState probes;
    if (!store::mergeStoreProbes(readers, where, probes, err)) {
      std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
      return 1;
    }
    return printSeries(probes, format);
  }

  if (args.has("pivot")) {
    if (select.size() != 1) {
      std::fprintf(stderr, "sweep_query: --pivot needs exactly one --select metric\n");
      return 2;
    }
    return runPivot(readers, args.get("pivot"), select.front(), where, format);
  }

  store::StoreQuery query;
  query.metrics = select;
  query.where = where;
  query.groupBy = args.get("group-by");

  std::vector<store::QueryGroup> groups;
  if (!store::runStoreQueryUnion(readers, query, groups, err)) {
    std::fprintf(stderr, "sweep_query: %s\n", err.c_str());
    return 1;
  }

  const std::string groupName = query.groupBy.empty() ? "group" : query.groupBy;
  if (format == "csv") {
    printCsv(groupName, groups);
  } else if (format == "json") {
    printJson(groupName, groups);
  } else {
    printTable(groupName, groups);
  }
  return 0;
}
