// bench_store: columnar campaign store at campaign scale.
//
// Writes a synthetic 10^4-cell campaign (two axes, two metrics, a
// telemetry blob per cell) through the streaming StoreWriter, then
// answers a group-by aggregation and a filtered scan through the
// memory-mapped StoreReader.  The point being demonstrated: writing is
// O(cells-in-flight) memory (one row at a time hits the spool), and a
// query is a column scan over the mapping — neither ever materializes
// the campaign, which is what makes million-cell campaigns observable
// rather than write-only.
//
//   bench_store [--cells=10000] [--samples=48] [--out=.]
//
// The group-by result is cross-checked against directly accumulated
// per-group totals (exit 1 on any mismatch — this is a correctness gate
// as well as a perf probe).  Writes BENCH_store.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace mcs {
namespace {

/// Deterministic per-cell sample stream (cheap LCG; the bench measures
/// the store, not the RNG).
double sampleValue(std::uint64_t cell, std::uint64_t i) {
  std::uint64_t x = cell * 6364136223846793005ull + i * 1442695040888963407ull + 1ull;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return 1.0 + static_cast<double>(x % 100000) / 1000.0;
}

int run(const Args& args) {
  const auto cells = static_cast<std::size_t>(args.getInt("cells", 10000));
  const auto samples = static_cast<std::uint64_t>(args.getInt("samples", 48));
  const std::string outDir = args.get("out", args.get("out-dir", "."));
  const int loadValues = 10;

  const std::string storePath = outDir + "/BENCH_store_synth.store";
  std::string err;

  bench::BenchReport report("store");
  report.meta("cells", static_cast<double>(cells));
  report.meta("samples_per_cell", static_cast<double>(samples));

  // ---- write: one row per cell, streamed ------------------------------
  store::StoreWriter writer;
  store::StoreMeta meta;
  meta.campaign = "store_synth";
  meta.base = "synthetic";
  meta.totalCells = static_cast<int>(cells);
  meta.cellSlots = cells;
  if (!writer.open(storePath, meta, err)) {
    std::fprintf(stderr, "bench_store: %s\n", err.c_str());
    return 1;
  }

  std::vector<std::uint64_t> expectCellsPerLoad(loadValues, 0);
  std::vector<double> expectSumPerLoad(loadValues, 0.0);
  std::vector<std::uint64_t> expectCountPerLoad(loadValues, 0);

  const double w0 = nowSec();
  MetricMap tm;
  for (std::size_t c = 0; c < cells; ++c) {
    const int load = static_cast<int>(c) % loadValues;
    StreamingStats throughput, latency;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const double v = sampleValue(c, i);
      throughput.add(v);
      latency.add(1.0 / v);
      expectSumPerLoad[static_cast<std::size_t>(load)] += v;
    }
    expectCellsPerLoad[static_cast<std::size_t>(load)] += 1;
    expectCountPerLoad[static_cast<std::size_t>(load)] += samples;

    NamedStats stats;
    stats.emplace_back("throughput", std::move(throughput));
    stats.emplace_back("latency", std::move(latency));
    tm = MetricMap{};
    tm.set("tm.synthetic.count", static_cast<double>(samples));

    store::StoreCellRow row;
    row.cellIndex = static_cast<int>(c);
    row.label = "cell_" + std::to_string(c);
    row.assignments = {{"load", std::to_string(load)},
                       {"bucket", std::to_string(c / 1000)}};
    row.seeds = static_cast<int>(samples);
    row.delivered = static_cast<int>(samples);
    row.stats = &stats;
    row.telemetry = &tm;
    if (!writer.appendCell(c, row, err)) {
      std::fprintf(stderr, "bench_store: cell %zu: %s\n", c, err.c_str());
      return 1;
    }
  }
  if (!writer.finish(err)) {
    std::fprintf(stderr, "bench_store: finish: %s\n", err.c_str());
    return 1;
  }
  const double writeWall = nowSec() - w0;

  bench::header("store: write", std::to_string(cells) + " cells, " +
                                    std::to_string(writer.bytesWritten()) + " bytes");
  bench::row("write: %zu cells in %.3fs (%.0f cells/s, %.1f MB)", cells, writeWall,
             writeWall > 0 ? static_cast<double>(cells) / writeWall : 0.0,
             static_cast<double>(writer.bytesWritten()) / 1e6);
  report.row()
      .col("case", "write")
      .col("cells", static_cast<double>(cells))
      .col("bytes", static_cast<double>(writer.bytesWritten()))
      .col("wall_sec", writeWall);

  // ---- query: group-by over the mapped file ---------------------------
  store::StoreReader reader;
  if (!reader.open(storePath, err)) {
    std::fprintf(stderr, "bench_store: %s\n", err.c_str());
    return 1;
  }

  const double q0 = nowSec();
  store::StoreQuery query;
  query.metrics = {"throughput"};
  query.groupBy = "load";
  std::vector<store::QueryGroup> groups;
  if (!store::runStoreQuery(reader, query, groups, err)) {
    std::fprintf(stderr, "bench_store: query: %s\n", err.c_str());
    return 1;
  }
  const double groupWall = nowSec() - q0;

  if (groups.size() != static_cast<std::size_t>(loadValues)) {
    std::fprintf(stderr, "bench_store: expected %d groups, got %zu\n", loadValues,
                 groups.size());
    return 1;
  }
  for (const store::QueryGroup& g : groups) {
    const auto load = static_cast<std::size_t>(std::stoi(g.key));
    const auto& agg = g.stats[0].second.moments;
    if (g.cells != expectCellsPerLoad[load] || agg.count() != expectCountPerLoad[load]) {
      std::fprintf(stderr, "bench_store: group %s cells/count mismatch\n", g.key.c_str());
      return 1;
    }
    // The merged sum must match the straight accumulation to float noise.
    const double ref = expectSumPerLoad[load];
    if (ref != 0.0 && std::abs(agg.sum() - ref) / std::abs(ref) > 1e-9) {
      std::fprintf(stderr, "bench_store: group %s sum drift (%.17g vs %.17g)\n",
                   g.key.c_str(), agg.sum(), ref);
      return 1;
    }
  }
  bench::row("group-by: %zu groups in %.3fs (%.1f Mcells/s)", groups.size(), groupWall,
             groupWall > 0 ? static_cast<double>(cells) / groupWall / 1e6 : 0.0);
  report.row()
      .col("case", "query_group_by")
      .col("groups", static_cast<double>(groups.size()))
      .col("wall_sec", groupWall);

  // ---- query: filtered scan -------------------------------------------
  const double f0 = nowSec();
  store::StoreQuery filtered;
  filtered.metrics = {"latency"};
  filtered.where = {{"load", "3"}};
  std::vector<store::QueryGroup> one;
  if (!store::runStoreQuery(reader, filtered, one, err)) {
    std::fprintf(stderr, "bench_store: filter: %s\n", err.c_str());
    return 1;
  }
  const double filterWall = nowSec() - f0;
  if (one.size() != 1 || one[0].cells != expectCellsPerLoad[3]) {
    std::fprintf(stderr, "bench_store: filter returned wrong cell set\n");
    return 1;
  }
  bench::row("filter: %llu cells matched in %.3fs",
             static_cast<unsigned long long>(one[0].cells), filterWall);
  report.row()
      .col("case", "query_filter")
      .col("cells_matched", static_cast<double>(one[0].cells))
      .col("wall_sec", filterWall);

  return report.write(outDir) ? 0 : 1;
}

}  // namespace
}  // namespace mcs

int main(int argc, char** argv) {
  const mcs::Args args(argc, argv);
  return mcs::run(args);
}
