#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/coordinator.h"
#include "campaign/protocol.h"
#include "campaign/reduce.h"
#include "campaign/worker.h"
#include "store/query.h"
#include "store/reader.h"
#include "sweep/check.h"
#include "sweep/expand.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "telemetry/telemetry.h"
#include "util/framing.h"
#include "util/json.h"
#include "util/stats.h"

// The campaign coordinator: wire framing, the frame vocabulary,
// cross-process moment transport, the fixed-shape tree reduction, and the
// headline contracts — cell files and stores byte-identical between the
// inline and forked executors (wall times aside), also for campaigns whose
// cells carry different metrics, resume across executors, and
// worker-death requeues that leave no trace in the output.
namespace mcs {
namespace campaign {
namespace {

// ---------------------------------------------------------------- framing

std::string frameBytes(std::string_view payload) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string err;
  EXPECT_TRUE(writeFrame(fds[0], payload, err)) << err;
  std::string wire(payload.size() + 4, '\0');
  ssize_t got = read(fds[1], wire.data(), wire.size());
  EXPECT_EQ(static_cast<std::size_t>(got), wire.size());
  close(fds[0]);
  close(fds[1]);
  return wire;
}

TEST(Framing, RoundTripAcrossArbitraryChunkBoundaries) {
  const std::vector<std::string> payloads = {"", "x", R"({"type": "lease", "cell": 3})",
                                             std::string(1000, 'q')};
  std::string wire;
  for (const std::string& p : payloads) wire += frameBytes(p);

  // Feed the concatenated stream in every chunk size from 1 byte up:
  // frame boundaries never align with feed() boundaries.
  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameDecoder dec;
    std::vector<std::string> decoded;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      dec.feed(wire.data() + off, std::min(chunk, wire.size() - off));
      std::string payload;
      while (dec.next(payload)) decoded.push_back(payload);
    }
    EXPECT_FALSE(dec.bad());
    EXPECT_EQ(decoded, payloads) << "chunk size " << chunk;
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(Framing, OversizeLengthPrefixPoisonsTheDecoder) {
  // A length prefix beyond kMaxFrameBytes must mark the stream broken
  // without attempting the allocation.
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  FrameDecoder dec;
  dec.feed(reinterpret_cast<const char*>(prefix), 4);
  std::string payload;
  EXPECT_FALSE(dec.next(payload));
  EXPECT_TRUE(dec.bad());
  // Once bad, always bad — further bytes don't resurrect it.
  dec.feed("more", 4);
  EXPECT_FALSE(dec.next(payload));
  EXPECT_TRUE(dec.bad());
}

// --------------------------------------------------------------- protocol

TEST(CampaignProtocol, FramesRoundTrip) {
  for (const FrameType t :
       {FrameType::Lease, FrameType::Heartbeat, FrameType::Result, FrameType::Done}) {
    Frame f = makeFrame(t);
    f.body.set("cell", Json(7.0));
    Frame back;
    std::string err;
    ASSERT_TRUE(decodeFrame(encodeFrame(f), back, err)) << err;
    EXPECT_EQ(back.type, t);
    EXPECT_EQ(back.body.numberAt("cell"), 7.0);
    EXPECT_EQ(back.body.stringAt("type"), toString(t));
  }
}

TEST(CampaignProtocol, RejectsMalformedFrames) {
  Frame out;
  std::string err;
  EXPECT_FALSE(decodeFrame("not json", out, err));
  EXPECT_FALSE(decodeFrame(R"({"cell": 1})", out, err));               // no type
  EXPECT_FALSE(decodeFrame(R"({"type": "teleport"})", out, err));      // unknown type
  EXPECT_FALSE(err.empty());
}

TEST(CampaignProtocol, MomentsCarryTheFullAccumulatorState) {
  // Transporting accumulators over JSON and rebuilding them must behave
  // exactly like the originals under further merges — moments AND the
  // quantile state.
  StreamingStats a;
  for (const double x : {1.0, 2.5, -3.0, 7.25}) a.add(x);
  StreamingStats b;
  for (const double x : {0.5, 100.0}) b.add(x);

  NamedStats stats;
  stats.emplace_back("alpha", a);
  stats.emplace_back("beta", b);
  const NamedStats back = momentsFromJson(momentsToJson(stats));
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back[i].first, stats[i].first);
    EXPECT_EQ(back[i].second.moments.count(), stats[i].second.moments.count());
    EXPECT_EQ(back[i].second.moments.mean(), stats[i].second.moments.mean());
    EXPECT_EQ(back[i].second.moments.m2(), stats[i].second.moments.m2());
    EXPECT_EQ(back[i].second.moments.min(), stats[i].second.moments.min());
    EXPECT_EQ(back[i].second.moments.max(), stats[i].second.moments.max());
    EXPECT_EQ(back[i].second.moments.sum(), stats[i].second.moments.sum());
    EXPECT_EQ(back[i].second.quantiles.quantile(0.5), stats[i].second.quantiles.quantile(0.5));
  }

  // Merging a round-tripped accumulator is bit-identical to merging the
  // original — the property the coordinator-side reduction relies on.
  StreamingStats direct = a;
  direct.merge(b);
  StreamingStats viaWire = back[0].second;
  viaWire.merge(back[1].second);
  EXPECT_EQ(viaWire.moments.mean(), direct.moments.mean());
  EXPECT_EQ(viaWire.moments.m2(), direct.moments.m2());
  EXPECT_EQ(viaWire.moments.count(), direct.moments.count());
  EXPECT_EQ(viaWire.quantiles.quantile(0.95), direct.quantiles.quantile(0.95));
}

// --------------------------------------------------------------- reducer

NamedStats leafStats(std::size_t i) {
  StreamingStats s;
  // Values chosen so merge order matters in the last float bits if the
  // tree shape were not fixed.
  s.add(1.0 + 1e-9 * static_cast<double>(i));
  s.add(3.0 / (1.0 + static_cast<double>(i)));
  NamedStats m;
  m.emplace_back("metric", s);
  return m;
}

NamedStats reduceInOrder(std::size_t n, const std::vector<std::size_t>& order) {
  TreeReducer r(n);
  for (const std::size_t i : order) r.addLeaf(i, leafStats(i));
  EXPECT_TRUE(r.complete());
  return r.root();
}

TEST(TreeReducer, RootIsBitIdenticalAcrossArrivalOrders) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 13u}) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    const NamedStats forward = reduceInOrder(n, order);
    ASSERT_EQ(forward.size(), 1u);
    EXPECT_EQ(forward[0].second.moments.count(), 2 * n);

    std::reverse(order.begin(), order.end());
    NamedStats other = reduceInOrder(n, order);
    EXPECT_EQ(other[0].second.moments.mean(), forward[0].second.moments.mean())
        << "n=" << n << " reversed";
    EXPECT_EQ(other[0].second.moments.m2(), forward[0].second.moments.m2());

    std::mt19937 rng(42);
    for (int trial = 0; trial < 5; ++trial) {
      std::shuffle(order.begin(), order.end(), rng);
      other = reduceInOrder(n, order);
      EXPECT_EQ(other[0].second.moments.mean(), forward[0].second.moments.mean())
          << "n=" << n << " trial " << trial;
      EXPECT_EQ(other[0].second.moments.m2(), forward[0].second.moments.m2());
      EXPECT_EQ(other[0].second.moments.min(), forward[0].second.moments.min());
      EXPECT_EQ(other[0].second.moments.max(), forward[0].second.moments.max());
      EXPECT_EQ(other[0].second.quantiles.quantile(0.5),
                forward[0].second.quantiles.quantile(0.5));
    }
  }
}

TEST(TreeReducer, EmptyAndSingleLeaf) {
  TreeReducer empty(0);
  EXPECT_TRUE(empty.complete());
  EXPECT_TRUE(empty.root().empty());

  TreeReducer one(1);
  EXPECT_FALSE(one.complete());
  one.addLeaf(0, leafStats(0));
  EXPECT_TRUE(one.complete());
  ASSERT_EQ(one.root().size(), 1u);
  EXPECT_EQ(one.root()[0].second.moments.count(), 2u);
  EXPECT_EQ(one.pendingNodes(), 0u);
}

TEST(TreeReducer, InOrderArrivalKeepsALogarithmicFrontier) {
  const std::size_t n = 64;
  TreeReducer r(n);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    r.addLeaf(i, leafStats(i));
    peak = std::max(peak, r.pendingNodes());
  }
  EXPECT_TRUE(r.complete());
  // In-order arrival carries at most one pending node per level: the
  // streaming-memory contract (log2(64) = 6).
  EXPECT_LE(peak, 6u);
  EXPECT_EQ(r.pendingNodes(), 0u);
}

TEST(TreeReducer, MetricNameUnionAcrossLeaves) {
  TreeReducer r(2);
  StreamingStats onlyLeft;
  onlyLeft.add(5.0);
  NamedStats leftLeaf;
  leftLeaf.emplace_back("shared", leafStats(0)[0].second);
  leftLeaf.emplace_back("left_only", onlyLeft);
  NamedStats rightLeaf;
  rightLeaf.emplace_back("shared", leafStats(1)[0].second);
  r.addLeaf(0, leftLeaf);
  r.addLeaf(1, rightLeaf);
  ASSERT_TRUE(r.complete());
  const NamedStats& root = r.root();
  ASSERT_EQ(root.size(), 2u);
  EXPECT_EQ(root[0].first, "left_only");
  EXPECT_EQ(root[0].second.moments.count(), 1u);
  EXPECT_EQ(root[1].first, "shared");
  EXPECT_EQ(root[1].second.moments.count(), 4u);
}

// ---------------------------------------------------- end-to-end parity

/// A fast real sweep whose cells are cheap enough for process tests.
SweepSpec tinySweep(const std::string& name) {
  SweepSpec spec;
  std::string err;
  EXPECT_TRUE(applySweepKey(spec, "name", name, "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "base", "uniform_square", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "n", "60", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "seeds", "2", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "seed0", "1", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "sweep.channels", "1,2,4", "", err)) << err;
  return spec;
}

std::string readFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Canonical cell-file bytes: parse, zero wall clocks, re-dump.
std::string canonicalJsonBytes(const std::string& path) {
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parseFile(path, j, err)) << path << ": " << err;
  stripWallTimes(j);
  return j.dump();
}

TEST(WorkQueue, MatchesInProcessRunByteForByte) {
  const std::string dir = testing::TempDir() + "wq_parity";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = tinySweep("wq_parity");
  std::string err;

  // Reference: the inline executor (cells run in this process).
  WorkQueueOptions inlineOpts;
  inlineOpts.outDir = dir + "/inline";
  WorkQueueCampaign ref;
  ASSERT_TRUE(runCampaignWorkQueue(spec, inlineOpts, ref, err)) << err;
  EXPECT_EQ(ref.leases, 3u);
  EXPECT_EQ(ref.workerDeaths, 0u);

  // Candidate: two forked workers over the lease protocol.
  WorkQueueOptions wq;
  wq.workers = 2;
  wq.outDir = dir + "/wq";
  WorkQueueCampaign run;
  ASSERT_TRUE(runCampaignWorkQueue(spec, wq, run, err)) << err;
  EXPECT_EQ(run.leases, 3u);
  EXPECT_EQ(run.requeues, 0u);
  EXPECT_EQ(run.workerDeaths, 0u);
  EXPECT_EQ(run.failures(), 0);
  ASSERT_EQ(run.cells.size(), 3u);

  // Per-cell files: byte-identical after wall-time canonicalization.
  for (const CellRecord& rec : run.cells) {
    const std::string refCell = cellFilePath(inlineOpts.outDir, spec.name, rec.cell.index);
    const std::string wqCell = cellFilePath(wq.outDir, spec.name, rec.cell.index);
    EXPECT_EQ(canonicalJsonBytes(wqCell), canonicalJsonBytes(refCell))
        << "cell " << rec.cell.index;
  }


  // Both reductions match a direct per-seed accumulation over the cell
  // files, exactly.
  OnlineStats expectSlots;
  for (const CellRecord& rec : ref.cells) {
    CellResult cell;
    ASSERT_TRUE(loadCellResult(cellFilePath(inlineOpts.outDir, spec.name, rec.cell.index), cell,
                               err))
        << err;
    for (const SeedResult& r : cell.batch.perSeed) {
      if (r.error.empty()) expectSlots.add(static_cast<double>(r.slots));
    }
  }
  for (const WorkQueueCampaign* c : {&ref, &run}) {
    const auto slots = std::find_if(c->reduction.begin(), c->reduction.end(),
                                    [](const auto& kv) { return kv.first == "slots"; });
    ASSERT_NE(slots, c->reduction.end());
    EXPECT_EQ(slots->second.moments.count(), expectSlots.count());
    EXPECT_EQ(slots->second.moments.sum(), expectSlots.sum());
    EXPECT_EQ(slots->second.moments.min(), expectSlots.min());
    EXPECT_EQ(slots->second.moments.max(), expectSlots.max());
  }
}

/// Runs `spec` inline and with `workers` forked workers into stores with
/// wall times stripped, expects the two files to be byte-identical, and
/// returns the inline store's path.
std::string expectExecutorIndependentStore(const SweepSpec& spec, const std::string& dir,
                                           int workers) {
  std::filesystem::remove_all(dir);
  std::string bytes[2];
  for (int forked = 0; forked < 2; ++forked) {
    WorkQueueOptions opts;
    opts.workers = forked != 0 ? workers : 0;
    opts.outDir = dir + (forked != 0 ? "/forked" : "/inline");
    opts.storePath = opts.outDir + ".store";
    opts.storeStripWall = true;
    WorkQueueCampaign run;
    std::string err;
    EXPECT_TRUE(runCampaignWorkQueue(spec, opts, run, err)) << err;
    bytes[forked] = readFile(opts.storePath);
  }
  EXPECT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[1], bytes[0]);
  return dir + "/inline.store";
}

TEST(WorkQueue, StoreMatchesInProcessByteForByte) {
  // The columnar store is positional (rows land by slot, blobs are
  // reordered canonically at finish), so with wall times stripped the
  // 4-worker store must be the same FILE — not just the same data — as
  // the inline one.
  const std::string path =
      expectExecutorIndependentStore(tinySweep("wq_store"), testing::TempDir() + "wq_store", 4);

  // And the store opens and reads back the campaign's shape.
  store::StoreReader reader;
  std::string err;
  ASSERT_TRUE(reader.open(path, err)) << err;
  EXPECT_EQ(reader.cells(), 3u);
  EXPECT_EQ(reader.campaignName(), "wq_store");
  EXPECT_NE(reader.metricIndex("slots"), -1);
  EXPECT_NE(reader.axisIndex("channels"), -1);
}

TEST(WorkQueue, StoreTelemetryIsIndependentOfTheExecutor) {
  // With metrics armed, each store row carries its cell's own telemetry,
  // so an inline run and a forked run write the same rows: with the
  // wall-derived timer totals stripped the two stores are the same file,
  // and the counters sum to the same campaign totals.
  struct MetricsOn {
    MetricsOn() {
      telemetry::resetMetrics();
      telemetry::setEnabled(true);
    }
    ~MetricsOn() {
      telemetry::setEnabled(false);
      telemetry::resetMetrics();
    }
  } metricsOn;
  const std::string path = expectExecutorIndependentStore(
      tinySweep("wq_telemetry"), testing::TempDir() + "wq_telemetry", 2);

  store::StoreReader reader;
  std::string err;
  ASSERT_TRUE(reader.open(path, err)) << err;
  store::StoreQuery totals;
  totals.metrics = {"tm.sweep.cell.count", "tm.medium.slots"};
  std::vector<store::QueryGroup> groups;
  ASSERT_TRUE(store::runStoreQuery(reader, totals, groups, err)) << err;
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].stats[0].second.moments.sum(), 3.0);
  EXPECT_GT(groups[0].stats[1].second.moments.sum(), 0.0);
}

/// A two-protocol campaign: agg_max cells and coloring cells carry
/// different named metrics.
SweepSpec mixedProtocolSweep(const std::string& name) {
  SweepSpec spec;
  spec.name = name;
  std::string err;
  EXPECT_TRUE(applySweepKey(spec, "base", "uniform_square", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "n", "60", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "seeds", "1", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "seed0", "1", "", err)) << err;
  EXPECT_TRUE(applySweepKey(spec, "sweep.protocol", "agg_max,coloring", "", err)) << err;
  return spec;
}

TEST(WorkQueue, MixedProtocolStoreMatchesInProcessByteForByte) {
  // The store's metric schema is the union over the cells, fixed at
  // finish, so a campaign mixing protocols writes one store — the same
  // file whichever executor ran it and in whatever order cells landed.
  const std::string path = expectExecutorIndependentStore(
      mixedProtocolSweep("wq_mixed"), testing::TempDir() + "wq_mixed", 2);

  store::StoreReader reader;
  std::string err;
  ASSERT_TRUE(reader.open(path, err)) << err;
  ASSERT_EQ(reader.cells(), 2u);
  const int colors = reader.metricIndex("colors_used");
  const int uplink = reader.metricIndex("uplink_slots");
  ASSERT_GE(colors, 0);
  ASSERT_GE(uplink, 0);
  // Cell 0 (agg_max) lacks the coloring metric, cell 1 the aggregation one.
  EXPECT_EQ(reader.momentsAt(static_cast<std::size_t>(colors), 0).count(), 0u);
  EXPECT_EQ(reader.momentsAt(static_cast<std::size_t>(colors), 1).count(), 1u);
  EXPECT_EQ(reader.momentsAt(static_cast<std::size_t>(uplink), 0).count(), 1u);
  EXPECT_EQ(reader.momentsAt(static_cast<std::size_t>(uplink), 1).count(), 0u);
}

TEST(StoreQuery, ShardStoresWithDifferentMetricsUnion) {
  // Sharding a protocol sweep puts the agg_max cell and the coloring cell
  // in different stores with different schemas.  The default selection
  // is the union (first store first), a metric one shard lacks reads as
  // empty there, and only a metric no store holds is an error.
  const std::string dir = testing::TempDir() + "wq_mixed_shards";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = mixedProtocolSweep("wq_mixed_shards");
  std::string err;
  std::vector<std::unique_ptr<store::StoreReader>> shards;
  for (int s = 0; s < 2; ++s) {
    WorkQueueOptions opts;
    opts.shardIndex = s;
    opts.shardCount = 2;
    opts.outDir = dir;
    opts.storePath = dir + "/shard" + std::to_string(s) + ".store";
    WorkQueueCampaign run;
    ASSERT_TRUE(runCampaignWorkQueue(spec, opts, run, err)) << err;
    shards.push_back(std::make_unique<store::StoreReader>());
    ASSERT_TRUE(shards.back()->open(opts.storePath, err)) << err;
  }
  ASSERT_LT(shards[0]->metricIndex("colors_used"), 0);
  ASSERT_GE(shards[1]->metricIndex("colors_used"), 0);
  const std::vector<const store::StoreReader*> readers = {shards[0].get(), shards[1].get()};

  std::vector<store::QueryGroup> groups;
  ASSERT_TRUE(store::runStoreQueryUnion(readers, store::StoreQuery{}, groups, err)) << err;
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].cells, 2u);
  std::vector<std::string> names;
  for (const auto& [name, stats] : groups[0].stats) names.push_back(name);
  std::vector<std::string> expected = shards[0]->metricNames();
  for (const std::string& name : shards[1]->metricNames()) {
    if (std::find(expected.begin(), expected.end(), name) == expected.end()) {
      expected.push_back(name);
    }
  }
  EXPECT_EQ(names, expected);
  const auto statsOf = [&](const std::string& name) {
    for (const auto& [n, stats] : groups[0].stats) {
      if (n == name) return stats.moments.count();
    }
    return std::size_t{99};
  };
  EXPECT_EQ(statsOf("slots"), 2u);         // both shards
  EXPECT_EQ(statsOf("colors_used"), 1u);   // the coloring shard only
  EXPECT_EQ(statsOf("uplink_slots"), 1u);  // the agg_max shard only

  store::StoreQuery missing;
  missing.metrics = {"colors_used", "no_such_metric"};
  EXPECT_FALSE(store::runStoreQueryUnion(readers, missing, groups, err));
  EXPECT_NE(err.find("no_such_metric"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

TEST(WorkQueue, CrossModeResumeLoadsInlineCellsWithoutLeasing) {
  // Cell files are the same whichever executor wrote them, so a campaign
  // started inline can be resumed with forked workers over the same
  // outDir: every cell comes from cache, nothing is leased, and the
  // reduction is identical.
  const std::string dir = testing::TempDir() + "wq_cross_resume";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = tinySweep("wq_cross_resume");
  std::string err;

  WorkQueueOptions opts;
  opts.outDir = dir;
  WorkQueueCampaign first;
  ASSERT_TRUE(runCampaignWorkQueue(spec, opts, first, err)) << err;
  EXPECT_EQ(first.leases, 3u);

  opts.workers = 2;
  opts.resume = true;
  WorkQueueCampaign second;
  ASSERT_TRUE(runCampaignWorkQueue(spec, opts, second, err)) << err;
  EXPECT_EQ(second.cachedCells(), 3);
  EXPECT_EQ(second.leases, 0u);
  EXPECT_EQ(second.workerDeaths, 0u);
  ASSERT_FALSE(second.reduction.empty());
  EXPECT_EQ(momentsToJson(second.reduction).dump(), momentsToJson(first.reduction).dump());
}

TEST(CampaignWorker, OutOfRangeLeaseExitsWithCode3) {
  // A LEASE addresses the expansion by index; one outside it is a protocol
  // error the worker answers with exit code 3 (no cell runs, no ack).
  std::vector<SweepCell> cells;
  std::string err;
  ASSERT_TRUE(expandSweep(tinySweep("wq_bad_lease"), cells, err)) << err;
  for (const int index : {static_cast<int>(cells.size()), -1}) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Frame lease = makeFrame(FrameType::Lease);
    lease.body.set("cell", index);
    ASSERT_TRUE(writeFrame(fds[0], encodeFrame(lease), err)) << err;
    WorkerConfig cfg;
    cfg.campaign = "wq_bad_lease";
    cfg.outDir = testing::TempDir() + "wq_bad_lease";
    EXPECT_EQ(campaignWorkerMain(fds[1], cells, cfg), 3) << "index " << index;
    close(fds[0]);
    close(fds[1]);
  }
}

TEST(WorkQueue, ResumeLoadsEveryCellFromCacheWithoutLeasing) {
  const std::string dir = testing::TempDir() + "wq_resume";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = tinySweep("wq_resume");
  std::string err;

  WorkQueueOptions wq;
  wq.workers = 2;
  wq.outDir = dir;
  WorkQueueCampaign first;
  ASSERT_TRUE(runCampaignWorkQueue(spec, wq, first, err)) << err;
  EXPECT_EQ(first.cachedCells(), 0);

  wq.resume = true;
  WorkQueueCampaign second;
  ASSERT_TRUE(runCampaignWorkQueue(spec, wq, second, err)) << err;
  EXPECT_EQ(second.cachedCells(), 3);
  EXPECT_EQ(second.leases, 0u);
  EXPECT_EQ(second.workerDeaths, 0u);
  // The reduction is rebuilt from the cached cells and still complete.
  ASSERT_FALSE(second.reduction.empty());
  const auto slots = std::find_if(second.reduction.begin(), second.reduction.end(),
                                  [](const auto& kv) { return kv.first == "slots"; });
  ASSERT_NE(slots, second.reduction.end());
  const auto firstSlots = std::find_if(first.reduction.begin(), first.reduction.end(),
                                       [](const auto& kv) { return kv.first == "slots"; });
  ASSERT_NE(firstSlots, first.reduction.end());
  EXPECT_EQ(slots->second.moments.count(), firstSlots->second.moments.count());
  EXPECT_EQ(slots->second.moments.mean(), firstSlots->second.moments.mean());
}

TEST(WorkQueue, WorkerCrashRequeuesTheLeaseAndReproducesTheBytes) {
  const std::string dir = testing::TempDir() + "wq_crash";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = tinySweep("wq_crash");
  std::string err;

  // Reference run, no faults.
  WorkQueueOptions clean;
  clean.workers = 2;
  clean.outDir = dir + "/clean";
  clean.storePath = dir + "/clean.store";
  clean.storeStripWall = true;
  WorkQueueCampaign ref;
  ASSERT_TRUE(runCampaignWorkQueue(spec, clean, ref, err)) << err;

  // Faulted run: the worker holding cell 1's first lease is SIGKILLed
  // right after it acknowledges, mid-cell.
  WorkQueueOptions faulty = clean;
  faulty.outDir = dir + "/faulty";
  faulty.storePath = dir + "/faulty.store";
  faulty.faultKillCell = 1;
  WorkQueueCampaign run;
  ASSERT_TRUE(runCampaignWorkQueue(spec, faulty, run, err)) << err;
  EXPECT_GE(run.workerDeaths, 1u);
  EXPECT_GE(run.requeues, 1u);
  EXPECT_EQ(run.leases, 4u);  // 3 cells + 1 re-lease of the killed cell
  EXPECT_EQ(run.failures(), 0);
  ASSERT_EQ(run.cells.size(), 3u);

  // The crash must be invisible in the output: every cell file and the
  // whole store byte-match the unharmed run after wall canonicalization.
  for (const CellRecord& rec : run.cells) {
    EXPECT_EQ(canonicalJsonBytes(cellFilePath(faulty.outDir, spec.name, rec.cell.index)),
              canonicalJsonBytes(cellFilePath(clean.outDir, spec.name, rec.cell.index)))
        << "cell " << rec.cell.index;
  }
  const std::string refBytes = readFile(clean.storePath);
  ASSERT_FALSE(refBytes.empty());
  EXPECT_EQ(readFile(faulty.storePath), refBytes);
}

TEST(WorkQueue, ComposesWithSharding) {
  const std::string dir = testing::TempDir() + "wq_shard";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = tinySweep("wq_shard");
  std::string err;

  WorkQueueOptions wq;
  wq.workers = 2;
  wq.outDir = dir;
  wq.shardIndex = 0;
  wq.shardCount = 2;
  WorkQueueCampaign shard0;
  ASSERT_TRUE(runCampaignWorkQueue(spec, wq, shard0, err)) << err;
  // 3 cells round-robin over 2 shards: shard 0 holds cells 0 and 2.
  ASSERT_EQ(shard0.cells.size(), 2u);
  EXPECT_EQ(shard0.totalCells, 3);
  EXPECT_EQ(shard0.cells[0].cell.index, 0);
  EXPECT_EQ(shard0.cells[1].cell.index, 2);
  EXPECT_EQ(shard0.leases, 2u);
}

}  // namespace
}  // namespace campaign

// ------------------------------------------------ bench-rows sweep_check

namespace {

Json benchReport(double wall, double speedup, double cells) {
  Json row = Json::object();
  row.set("config", Json("w8"));
  row.set("mode", Json("queue"));
  row.set("cells", Json(cells));
  row.set("makespan_wall_sec", Json(wall));
  row.set("speedup", Json(speedup));
  Json rows = Json::array();
  rows.push_back(row);
  Json report = Json::object();
  report.set("name", Json("campaign"));
  report.set("rows", rows);
  return report;
}

TEST(SweepCheckBenchRows, IdenticalReportsPass) {
  const Json base = benchReport(1.0, 2.5, 24.0);
  const SweepCheckResult r = compareBenchRows(base, base, SweepCheckOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.cellsCompared, 1);
  EXPECT_EQ(r.metricsCompared, 3);
}

TEST(SweepCheckBenchRows, WallColumnsGateOnlyRegressions) {
  SweepCheckOptions opts;
  opts.wallTol = 0.5;
  // Faster is always fine; 2x slower is a violation at 50% tolerance.
  EXPECT_TRUE(compareBenchRows(benchReport(1.0, 2.5, 24.0), benchReport(0.2, 2.5, 24.0), opts)
                  .ok());
  EXPECT_FALSE(compareBenchRows(benchReport(1.0, 2.5, 24.0), benchReport(2.0, 2.5, 24.0), opts)
                   .ok());
}

TEST(SweepCheckBenchRows, SpeedupColumnsAreAFloor) {
  SweepCheckOptions opts;
  opts.wallTol = 0.5;
  // A higher speedup never fails; a drop beyond tolerance does — a
  // slower speedup IS a perf regression even though bigger is better.
  EXPECT_TRUE(compareBenchRows(benchReport(1.0, 2.5, 24.0), benchReport(1.0, 9.0, 24.0), opts)
                  .ok());
  EXPECT_FALSE(compareBenchRows(benchReport(1.0, 2.5, 24.0), benchReport(1.0, 1.0, 24.0), opts)
                   .ok());
}

TEST(SweepCheckBenchRows, OtherColumnsDriftAndMissingRowsFail) {
  SweepCheckOptions opts;
  EXPECT_FALSE(compareBenchRows(benchReport(1.0, 2.5, 24.0), benchReport(1.0, 2.5, 25.0), opts)
                   .ok());  // cells drifted

  Json missing = Json::object();
  missing.set("name", Json("campaign"));
  missing.set("rows", Json::array());
  EXPECT_FALSE(compareBenchRows(benchReport(1.0, 2.5, 24.0), missing, opts).ok());
  opts.allowMissing = true;
  // With allowMissing the row is only noted — but then nothing compared,
  // which still fails (an empty comparison must not pass the gate).
  EXPECT_FALSE(compareBenchRows(benchReport(1.0, 2.5, 24.0), missing, opts).ok());
}

}  // namespace
}  // namespace mcs
