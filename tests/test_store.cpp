// The columnar campaign store's durability contract (store/writer.h,
// store/reader.h, store/query.h): what goes in comes back bit-identical
// through the mmap, the file's bytes do not depend on row arrival
// order (the property the coordinator's out-of-order RESULT appends
// lean on) even when rows carry different metrics, queries over the
// mapping re-merge the per-cell accumulators exactly, and damaged files
// fail open() cleanly instead of crashing a reader.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"
#include "sweep/report.h"
#include "util/rng.h"

using namespace mcs;

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Four cells over a 2x2 axis grid, two metrics with distinct sample
/// streams, telemetry on alternating cells.
struct Fixture {
  std::vector<store::StoreCellRow> rows;
  std::vector<NamedStats> stats;                 // parallel to rows
  std::vector<MetricMap> telemetry;              // parallel to rows
  std::vector<telemetry::ProbeState> probes;     // parallel to rows

  Fixture() {
    Rng rng(424242);
    stats.resize(4);
    telemetry.resize(4);
    probes.resize(4);
    for (int c = 0; c < 4; ++c) {
      StreamingStats slots, rate;
      for (int i = 0; i < 12; ++i) {
        slots.add(rng.uniform(1.0, 9.0) + c);
        rate.add(rng.uniform(0.0, 1.0));
      }
      auto& st = stats[static_cast<std::size_t>(c)];
      st.emplace_back("slots", std::move(slots));
      st.emplace_back("decode_rate", std::move(rate));
      if (c % 2 == 0) {
        telemetry[static_cast<std::size_t>(c)].set("tm.medium.collisions",
                                                   10.0 * c + 1.0);
        telemetry[static_cast<std::size_t>(c)].set("tm.sim.slots", 100.0 + c);
      } else {
        // Probe state on the other cells: attribution sketches plus a
        // slot series, exercising the pb blob column alongside tm.
        telemetry::ProbeState& p = probes[static_cast<std::size_t>(c)];
        for (int i = 0; i < 20; ++i) p.marginDb.add(rng.uniform(-30.0, 30.0));
        for (std::uint64_t t = 0; t < 200; ++t) {
          QuantileSketch m;
          m.add(rng.uniform(-5.0, 5.0));
          p.series.recordSlot(t, 8, t % 3, 2, m);
        }
      }

      store::StoreCellRow row;
      row.cellIndex = c;
      row.label = "n=" + std::to_string(c / 2) + "/k=" + std::to_string(c % 2);
      row.assignments = {{"n", std::to_string(64 << (c / 2))},
                         {"k", std::to_string(c % 2)}};
      row.seeds = 12;
      row.failures = c == 3 ? 1 : 0;
      row.delivered = 12 - row.failures;
      row.valid = row.delivered;
      row.stats = &stats[static_cast<std::size_t>(c)];
      row.telemetry = &telemetry[static_cast<std::size_t>(c)];
      row.probes = &probes[static_cast<std::size_t>(c)];
      rows.push_back(std::move(row));
    }
  }

  /// Writes the fixture's rows at their natural slots in `order`.
  bool write(const std::string& path, const std::vector<std::size_t>& order,
             std::string& err) const {
    store::StoreWriter w;
    store::StoreMeta meta;
    meta.campaign = "store_fixture";
    meta.base = "unit";
    meta.totalCells = 4;
    meta.cellSlots = 4;
    if (!w.open(path, meta, err)) return false;
    for (std::size_t slot : order) {
      if (!w.appendCell(slot, rows[slot], err)) return false;
    }
    return w.finish(err);
  }
};

}  // namespace

TEST(Store, RoundTripsEveryColumnAndBlob) {
  const Fixture fx;
  const std::string path = testing::TempDir() + "store_roundtrip.store";
  std::string err;
  // Out-of-order slots on purpose: rows land by slot, in any order.
  ASSERT_TRUE(fx.write(path, {2, 0, 3, 1}, err)) << err;

  store::StoreReader r;
  ASSERT_TRUE(r.open(path, err)) << err;
  EXPECT_EQ(r.cells(), 4u);
  EXPECT_EQ(r.campaignName(), "store_fixture");
  EXPECT_EQ(r.baseName(), "unit");
  ASSERT_EQ(r.axisNames(), (std::vector<std::string>{"n", "k"}));
  ASSERT_EQ(r.metricNames(), (std::vector<std::string>{"slots", "decode_rate"}));
  EXPECT_EQ(r.header().totalCells, 4u);
  EXPECT_EQ(r.header().shardCount, 1u);

  for (std::size_t row = 0; row < 4; ++row) {
    const store::StoreCellRow& src = fx.rows[row];
    EXPECT_EQ(r.cellIndexCol()[row], static_cast<std::uint32_t>(src.cellIndex));
    EXPECT_EQ(r.str(r.labelCol()[row]), src.label);
    EXPECT_EQ(r.str(r.axisCol(0)[row]), src.assignments[0].second);
    EXPECT_EQ(r.str(r.axisCol(1)[row]), src.assignments[1].second);
    EXPECT_EQ(r.seedsCol()[row], 12u);
    EXPECT_EQ(r.failuresCol()[row], static_cast<std::uint32_t>(src.failures));
    EXPECT_EQ(r.deliveredCol()[row], static_cast<std::uint32_t>(src.delivered));

    for (std::size_t m = 0; m < 2; ++m) {
      const StreamingStats& want = fx.stats[row][m].second;
      const OnlineStats got = r.momentsAt(m, row);
      EXPECT_EQ(got.count(), want.moments.count());
      EXPECT_EQ(got.mean(), want.moments.mean());
      EXPECT_EQ(got.min(), want.moments.min());
      EXPECT_EQ(got.max(), want.moments.max());
      EXPECT_EQ(got.sum(), want.moments.sum());
      EXPECT_EQ(got.variance(), want.moments.variance());

      StreamingStats full;
      ASSERT_TRUE(r.statsAt(m, row, full, err)) << err;
      EXPECT_EQ(full.quantiles.quantile(0.5), want.quantiles.quantile(0.5));
      EXPECT_EQ(full.quantiles.quantile(0.95), want.quantiles.quantile(0.95));
    }

    std::vector<std::pair<std::string, double>> tm;
    ASSERT_TRUE(r.telemetryAt(row, tm, err)) << err;
    EXPECT_EQ(tm.size(), fx.telemetry[row].entries().size());
    for (const auto& [name, value] : fx.telemetry[row].entries()) {
      bool found = false;
      for (const auto& [gotName, gotValue] : tm) {
        if (gotName == name) {
          EXPECT_EQ(gotValue, value);
          found = true;
        }
      }
      EXPECT_TRUE(found) << name;
    }

    // The probe blob: cells written without probe state read back empty,
    // the others reproduce the ProbeState bit-for-bit.
    telemetry::ProbeState pb;
    ASSERT_TRUE(r.probesAt(row, pb, err)) << err;
    EXPECT_EQ(pb, fx.probes[row]);
    EXPECT_EQ(pb.empty(), fx.probes[row].empty());
  }
}

TEST(Store, BytesDoNotDependOnWriteOrder) {
  // Forked workers append rows in arrival order; the inline executor
  // appends in slot order.  Both must produce the same file —
  // this is the property the CI worker-parity gate (cmp) leans on, and
  // it exercises the canonical string re-pool: different write orders
  // intern labels/axis values/telemetry names in different orders.
  const Fixture fx;
  std::string err;
  const std::string a = testing::TempDir() + "store_order_a.store";
  const std::string b = testing::TempDir() + "store_order_b.store";
  const std::string c = testing::TempDir() + "store_order_c.store";
  ASSERT_TRUE(fx.write(a, {0, 1, 2, 3}, err)) << err;
  ASSERT_TRUE(fx.write(b, {3, 2, 1, 0}, err)) << err;
  ASSERT_TRUE(fx.write(c, {1, 3, 0, 2}, err)) << err;
  const std::string bytesA = readFile(a);
  ASSERT_FALSE(bytesA.empty());
  EXPECT_EQ(bytesA, readFile(b));
  EXPECT_EQ(bytesA, readFile(c));
}

TEST(Store, FinishFailsOnMissingSlot) {
  const Fixture fx;
  const std::string path = testing::TempDir() + "store_missing.store";
  std::string err;
  store::StoreWriter w;
  store::StoreMeta meta;
  meta.campaign = "partial";
  meta.base = "unit";
  meta.totalCells = 4;
  meta.cellSlots = 4;
  ASSERT_TRUE(w.open(path, meta, err)) << err;
  ASSERT_TRUE(w.appendCell(0, fx.rows[0], err)) << err;
  ASSERT_TRUE(w.appendCell(2, fx.rows[2], err)) << err;
  EXPECT_FALSE(w.finish(err));
  EXPECT_NE(err.find("slot"), std::string::npos) << err;
  // The atomic rename never happened: no store at the target path.
  store::StoreReader r;
  EXPECT_FALSE(r.open(path, err));
}

TEST(Store, DoubleWriteToOneSlotFails) {
  const Fixture fx;
  const std::string path = testing::TempDir() + "store_double.store";
  std::string err;
  store::StoreWriter w;
  store::StoreMeta meta;
  meta.campaign = "dup";
  meta.base = "unit";
  meta.totalCells = 4;
  meta.cellSlots = 4;
  ASSERT_TRUE(w.open(path, meta, err)) << err;
  ASSERT_TRUE(w.appendCell(1, fx.rows[1], err)) << err;
  EXPECT_FALSE(w.appendCell(1, fx.rows[1], err));
}

TEST(StoreQuery, GroupByMatchesManualMerge) {
  const Fixture fx;
  const std::string path = testing::TempDir() + "store_groupby.store";
  std::string err;
  ASSERT_TRUE(fx.write(path, {0, 1, 2, 3}, err)) << err;
  store::StoreReader r;
  ASSERT_TRUE(r.open(path, err)) << err;

  store::StoreQuery q;
  q.metrics = {"slots"};
  q.groupBy = "k";
  std::vector<store::QueryGroup> groups;
  ASSERT_TRUE(store::runStoreQuery(r, q, groups, err)) << err;
  ASSERT_EQ(groups.size(), 2u);  // k=0, k=1 in first-appearance order
  EXPECT_EQ(groups[0].key, "0");
  EXPECT_EQ(groups[1].key, "1");

  for (int k = 0; k < 2; ++k) {
    const store::QueryGroup& g = groups[static_cast<std::size_t>(k)];
    EXPECT_EQ(g.cells, 2u);
    ASSERT_EQ(g.stats.size(), 1u);
    EXPECT_EQ(g.stats[0].first, "slots");
    // Manual slot-order merge of the same cells.
    StreamingStats manual;
    for (int c = k; c < 4; c += 2) {
      manual.merge(fx.stats[static_cast<std::size_t>(c)][0].second);
    }
    EXPECT_EQ(g.stats[0].second.moments.count(), manual.moments.count());
    EXPECT_EQ(g.stats[0].second.moments.mean(), manual.moments.mean());
    EXPECT_EQ(g.stats[0].second.moments.sum(), manual.moments.sum());
    EXPECT_EQ(g.stats[0].second.quantiles.quantile(0.5), manual.quantiles.quantile(0.5));
    EXPECT_EQ(g.stats[0].second.quantiles.quantile(0.95), manual.quantiles.quantile(0.95));
  }

  // A where filter narrows to the matching cells only.
  store::StoreQuery filtered;
  filtered.where = {{"n", "64"}};
  std::vector<store::QueryGroup> one;
  ASSERT_TRUE(store::runStoreQuery(r, filtered, one, err)) << err;
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].key, "all");
  EXPECT_EQ(one[0].cells, 2u);
  ASSERT_EQ(one[0].stats.size(), 2u);  // empty select = every metric
}

TEST(StoreQuery, UnknownNamesFailWithInventory) {
  const Fixture fx;
  const std::string path = testing::TempDir() + "store_badquery.store";
  std::string err;
  ASSERT_TRUE(fx.write(path, {0, 1, 2, 3}, err)) << err;
  store::StoreReader r;
  ASSERT_TRUE(r.open(path, err)) << err;

  store::StoreQuery badMetric;
  badMetric.metrics = {"throughput"};
  std::vector<store::QueryGroup> out;
  EXPECT_FALSE(store::runStoreQuery(r, badMetric, out, err));
  EXPECT_NE(err.find("slots"), std::string::npos) << err;  // lists what exists

  store::StoreQuery badGroup;
  badGroup.groupBy = "channels";
  EXPECT_FALSE(store::runStoreQuery(r, badGroup, out, err));
  EXPECT_NE(err.find("n"), std::string::npos) << err;

  store::StoreQuery badWhere;
  badWhere.where = {{"nope", "1"}};
  EXPECT_FALSE(store::runStoreQuery(r, badWhere, out, err));
}

TEST(StoreQuery, SummariesViewMatchesStoredAccumulators) {
  const Fixture fx;
  const std::string path = testing::TempDir() + "store_summaries.store";
  std::string err;
  ASSERT_TRUE(fx.write(path, {3, 1, 2, 0}, err)) << err;
  store::StoreReader r;
  ASSERT_TRUE(r.open(path, err)) << err;

  Json view;
  ASSERT_TRUE(store::storeSummariesJson(r, view, err)) << err;
  EXPECT_EQ(view.stringAt("name"), "sweep_store_fixture");
  EXPECT_EQ(view.stringAt("kind"), "sweep");
  const Json* meta = view.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->stringAt("source"), "store");
  const Json* cells = view.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 4u);

  for (std::size_t row = 0; row < 4; ++row) {
    const Json& cell = cells->items()[row];
    EXPECT_EQ(cell.stringAt("label"), fx.rows[row].label);
    const Json* summaries = cell.find("summaries");
    ASSERT_NE(summaries, nullptr);
    for (std::size_t m = 0; m < 2; ++m) {
      const Json* got = summaries->find(fx.stats[row][m].first);
      ASSERT_NE(got, nullptr);
      // The view's summary bytes equal the source accumulator's summary
      // bytes — the store lost nothing a report consumer can see.
      EXPECT_EQ(got->dump(), summaryToJson(fx.stats[row][m].second.summary()).dump());
    }
  }
}

namespace {

/// Every row carries the four fixed metrics; the rest are disjoint per
/// slot (slot 0 carries only the fixed four).
struct MixedFixture {
  std::vector<store::StoreCellRow> rows;
  std::vector<NamedStats> stats;

  MixedFixture() {
    const std::vector<std::vector<std::string>> extras = {
        {}, {"colors_used", "color_classes"}, {"redelivered"}, {"agg_value", "uplink_slots"}};
    Rng rng(77);
    stats.resize(extras.size());
    for (std::size_t c = 0; c < extras.size(); ++c) {
      std::vector<std::string> names = {"slots", "decode_rate", "structure_slots", "wall_sec"};
      names.insert(names.end(), extras[c].begin(), extras[c].end());
      for (const std::string& name : names) {
        StreamingStats s;
        for (int i = 0; i < 3; ++i) s.add(rng.uniform(0.0, 100.0));
        stats[c].emplace_back(name, std::move(s));
      }
    }
    for (std::size_t c = 0; c < extras.size(); ++c) {
      store::StoreCellRow row;
      row.cellIndex = static_cast<int>(c);
      row.label = "cell=" + std::to_string(c);
      row.assignments = {{"cell", std::to_string(c)}};
      row.seeds = 3;
      row.delivered = 3;
      row.valid = 3;
      row.stats = &stats[c];
      rows.push_back(std::move(row));
    }
  }

  bool write(const std::string& path, const std::vector<std::size_t>& order,
             std::string& err) const {
    store::StoreWriter w;
    store::StoreMeta meta;
    meta.campaign = "mixed";
    meta.base = "unit";
    meta.totalCells = static_cast<int>(rows.size());
    meta.cellSlots = rows.size();
    meta.stripWall = true;
    if (!w.open(path, meta, err)) return false;
    for (std::size_t slot : order) {
      if (!w.appendCell(slot, rows[slot], err)) return false;
    }
    return w.finish(err);
  }
};

}  // namespace

TEST(Store, UnionSchemaOverDisjointMetricSets) {
  // Cells of different protocols carry different metrics.  The schema is
  // the union in slot-scan order, fixed at finish, so the file is the
  // same whatever order the rows arrive in; a metric a row lacks reads
  // back as the empty accumulator.
  const MixedFixture fx;
  std::string err;
  const std::string a = testing::TempDir() + "store_union_a.store";
  const std::string b = testing::TempDir() + "store_union_b.store";
  const std::string c = testing::TempDir() + "store_union_c.store";
  ASSERT_TRUE(fx.write(a, {0, 1, 2, 3}, err)) << err;
  ASSERT_TRUE(fx.write(b, {3, 2, 1, 0}, err)) << err;
  ASSERT_TRUE(fx.write(c, {2, 0, 3, 1}, err)) << err;
  const std::string bytesA = readFile(a);
  ASSERT_FALSE(bytesA.empty());
  EXPECT_EQ(bytesA, readFile(b));
  EXPECT_EQ(bytesA, readFile(c));

  store::StoreReader r;
  ASSERT_TRUE(r.open(a, err)) << err;
  const std::vector<std::string> expected = {
      "slots",         "decode_rate", "structure_slots", "wall_sec",    "colors_used",
      "color_classes", "redelivered", "agg_value",       "uplink_slots"};
  EXPECT_EQ(r.metricNames(), expected);
  for (std::size_t row = 0; row < fx.rows.size(); ++row) {
    for (std::size_t m = 0; m < expected.size(); ++m) {
      StreamingStats got;
      ASSERT_TRUE(r.statsAt(m, row, got, err)) << err;
      const StreamingStats* want = nullptr;
      for (const auto& [name, s] : fx.stats[row]) {
        if (name == expected[m]) want = &s;
      }
      if (want == nullptr) {
        EXPECT_EQ(got.moments.count(), 0u) << expected[m] << " row " << row;
        EXPECT_EQ(got.quantiles.count(), 0u) << expected[m] << " row " << row;
      } else if (expected[m] == "wall_sec") {
        EXPECT_EQ(got.moments.count(), want->moments.count());  // stripped
        EXPECT_EQ(got.moments.mean(), 0.0);
      } else {
        EXPECT_EQ(got.moments.count(), want->moments.count());
        EXPECT_EQ(got.moments.mean(), want->moments.mean());
        EXPECT_EQ(got.moments.m2(), want->moments.m2());
        EXPECT_EQ(got.quantiles.count(), want->quantiles.count());
      }
    }
  }
  Json view;
  ASSERT_TRUE(store::storeSummariesJson(r, view, err)) << err;
  ASSERT_EQ(view.find("cells")->items().size(), fx.rows.size());
}

TEST(StoreReader, SurvivesTruncationAndHeaderBitFlips) {
  // A probes-armed store cut at every byte offset, and with every single
  // bit of its header, string table and names section flipped: each
  // input either fails open() cleanly or answers the summaries view (and
  // the per-row telemetry and probe blobs) without crashing.
  const Fixture fx;
  std::string err;
  const std::string path = testing::TempDir() + "store_fuzz_src.store";
  ASSERT_TRUE(fx.write(path, {0, 1, 2, 3}, err)) << err;
  const std::string bytes = readFile(path);
  ASSERT_GT(bytes.size(), sizeof(store::StoreHeader));
  store::StoreHeader header{};
  std::memcpy(&header, bytes.data(), sizeof header);
  const std::size_t namesEnd = static_cast<std::size_t>(
      header.namesOff + 4ull * (header.axisCount + header.metricCount));
  ASSERT_LE(namesEnd, bytes.size());

  const std::string mutant = testing::TempDir() + "store_fuzz_mutant.store";
  std::size_t opened = 0;
  const auto probe = [&](const std::string& input) {
    {
      std::ofstream out(mutant, std::ios::binary | std::ios::trunc);
      out.write(input.data(), static_cast<std::streamsize>(input.size()));
    }
    store::StoreReader r;
    std::string e;
    if (!r.open(mutant, e)) {
      EXPECT_FALSE(e.empty());
      return;
    }
    ++opened;
    Json view;
    (void)store::storeSummariesJson(r, view, e);
    for (std::size_t row = 0; row < r.cells(); ++row) {
      std::vector<std::pair<std::string, double>> tm;
      telemetry::ProbeState pb;
      (void)r.telemetryAt(row, tm, e);
      (void)r.probesAt(row, pb, e);
    }
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) probe(bytes.substr(0, len));
  EXPECT_EQ(opened, 0u) << "a truncated store opened";
  for (std::size_t at = 0; at < namesEnd; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      probe(flipped);
    }
  }
  std::remove(mutant.c_str());
}
