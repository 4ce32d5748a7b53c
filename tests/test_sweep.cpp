#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/coordinator.h"
#include "campaign/report.h"
#include "scenario/registry.h"
#include "sweep/check.h"
#include "sweep/expand.h"
#include "sweep/presets.h"
#include "sweep/report.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/json.h"

// The sweep campaign engine: axis parsing, grid expansion, sharding,
// resume, report round-trips, and the baseline perf gate.  The committed
// sweeps/ files and the golden report layout are locked against the
// source tree via MCS_SOURCE_DIR (defined in tests/CMakeLists.txt).
namespace mcs {
namespace {

std::vector<std::string> axis(const std::string& text) {
  std::vector<std::string> out;
  std::string err;
  EXPECT_TRUE(parseAxisValues(text, out, err)) << err;
  return out;
}

TEST(SweepAxis, CommaList) {
  EXPECT_EQ(axis("1000,4000,16000"), (std::vector<std::string>{"1000", "4000", "16000"}));
  EXPECT_EQ(axis("none, rayleigh"), (std::vector<std::string>{"none", "rayleigh"}));
  EXPECT_EQ(axis("solo"), (std::vector<std::string>{"solo"}));
}

TEST(SweepAxis, AdditiveRange) {
  EXPECT_EQ(axis("1:4"), (std::vector<std::string>{"1", "2", "3", "4"}));
  EXPECT_EQ(axis("1:9:+2"), (std::vector<std::string>{"1", "3", "5", "7", "9"}));
  EXPECT_EQ(axis("1:9:2"), (std::vector<std::string>{"1", "3", "5", "7", "9"}));
  EXPECT_EQ(axis("0:1:0.25"),
            (std::vector<std::string>{"0", "0.25", "0.5", "0.75", "1"}));
}

TEST(SweepAxis, GeometricRange) {
  EXPECT_EQ(axis("1:8:*2"), (std::vector<std::string>{"1", "2", "4", "8"}));
  EXPECT_EQ(axis("1:32:*2"), (std::vector<std::string>{"1", "2", "4", "8", "16", "32"}));
}

TEST(SweepAxis, Malformed) {
  std::vector<std::string> out;
  std::string err;
  EXPECT_FALSE(parseAxisValues("8:1", out, err));          // hi < lo
  EXPECT_FALSE(parseAxisValues("1:8:*1", out, err));       // factor <= 1
  EXPECT_FALSE(parseAxisValues("0:8:*2", out, err));       // geometric from 0
  EXPECT_FALSE(parseAxisValues("1:8:0", out, err));        // zero step
  EXPECT_FALSE(parseAxisValues("a:8", out, err));          // non-numeric
  EXPECT_FALSE(parseAxisValues("1:2:3:4", out, err));      // too many parts
  EXPECT_FALSE(parseAxisValues("1,,2", out, err));         // empty element
}

SweepSpec parseSweep(const std::string& text) {
  SweepSpec spec;
  std::string err;
  EXPECT_TRUE(parseSweepText(spec, text, "test", "", err)) << err;
  return spec;
}

TEST(SweepSpec, ParseBasics) {
  const SweepSpec spec = parseSweep(
      "name = demo\n"
      "base = uniform_square\n"
      "seeds = 3\n"
      "sweep.channels = 1,2\n"
      "zip.n = 100,200\n"
      "zip.side = 1.0,1.4\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.baseName, "uniform_square");
  ASSERT_EQ(spec.assignments.size(), 4u);
  EXPECT_EQ(spec.assignments[0].kind, SweepAssignKind::Fixed);
  EXPECT_EQ(spec.assignments[1].kind, SweepAssignKind::Axis);
  EXPECT_EQ(spec.assignments[2].kind, SweepAssignKind::Zip);
  EXPECT_EQ(spec.axisKeys(), (std::vector<std::string>{"channels", "n", "side"}));
  EXPECT_EQ(sweepCellCount(spec), 4u);  // 2 channels x 2 zipped pairs
}

TEST(SweepSpec, RejectsBadInput) {
  SweepSpec spec;
  std::string err;
  EXPECT_FALSE(parseSweepText(spec, "base = no_such_preset\n", "t", "", err));
  EXPECT_NE(err.find("unknown base preset"), std::string::npos);

  spec = SweepSpec{};
  EXPECT_FALSE(parseSweepText(spec, "sweep.bogus_key = 1,2\n", "t", "", err));
  EXPECT_NE(err.find("unknown scenario key"), std::string::npos);

  spec = SweepSpec{};
  EXPECT_FALSE(parseSweepText(spec, "sweep.n = 1,2\nzip.n = 3,4\n", "t", "", err));
  EXPECT_NE(err.find("assigned twice"), std::string::npos);
}

TEST(SweepSpec, OverrideReplacesAssignment) {
  SweepSpec spec = parseSweep("seeds = 4\nsweep.channels = 1,2,4\n");
  std::string err;
  ASSERT_TRUE(applySweepOverride(spec, "seeds", "1", err)) << err;
  ASSERT_TRUE(applySweepOverride(spec, "sweep.channels", "1,2", err)) << err;
  ASSERT_EQ(spec.assignments.size(), 2u);
  EXPECT_EQ(sweepCellCount(spec), 2u);
  std::vector<SweepCell> cells;
  ASSERT_TRUE(expandSweep(spec, cells, err)) << err;
  EXPECT_EQ(cells[0].spec.seeds, 1);
}

TEST(SweepSpec, OverrideKeepsDeclaredPosition) {
  // Overriding an axis must not move it: `range = 0.8` after the alpha
  // axis still rescales with the cell's alpha, and the axis order (hence
  // cell indices/labels) survives.
  SweepSpec spec = parseSweep(
      "sweep.alpha = 2.5,4\n"
      "range = 0.8\n"
      "sweep.channels = 1,2\n");
  std::string err;
  ASSERT_TRUE(applySweepOverride(spec, "sweep.alpha", "3,4", err)) << err;
  EXPECT_EQ(spec.assignments[0].key, "alpha");
  std::vector<SweepCell> cells;
  ASSERT_TRUE(expandSweep(spec, cells, err)) << err;
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].label, "alpha=3,channels=1");
  for (const SweepCell& cell : cells) {
    EXPECT_NEAR(cell.spec.sinr.transmissionRange(), 0.8, 1e-12) << cell.label;
  }
}

TEST(SweepExpand, RowMajorOrderAndLabels) {
  const SweepSpec spec = parseSweep(
      "sweep.channels = 1,2\n"
      "sweep.seeds = 3,4,5\n");
  std::vector<SweepCell> cells;
  std::string err;
  ASSERT_TRUE(expandSweep(spec, cells, err)) << err;
  ASSERT_EQ(cells.size(), 6u);
  // First-declared axis varies slowest.
  EXPECT_EQ(cells[0].label, "channels=1,seeds=3");
  EXPECT_EQ(cells[1].label, "channels=1,seeds=4");
  EXPECT_EQ(cells[3].label, "channels=2,seeds=3");
  EXPECT_EQ(cells[5].label, "channels=2,seeds=5");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
  }
  EXPECT_EQ(cells[5].spec.channels, 2);
  EXPECT_EQ(cells[5].spec.seeds, 5);
}

TEST(SweepExpand, ZipAxesAdvanceTogether) {
  const SweepSpec spec = parseSweep(
      "zip.n = 100,200,400\n"
      "zip.side = 1.0,1.4,2.0\n");
  std::vector<SweepCell> cells;
  std::string err;
  ASSERT_TRUE(expandSweep(spec, cells, err)) << err;
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[1].label, "n=200,side=1.4");
  EXPECT_EQ(cells[1].spec.deployment.n, 200);
  EXPECT_DOUBLE_EQ(cells[1].spec.deployment.side, 1.4);
}

TEST(SweepExpand, ZipLengthMismatchFails) {
  const SweepSpec spec = parseSweep("zip.n = 100,200\nzip.side = 1.0\n");
  // Lengths are validated at expansion (parse keeps the file readable for
  // --cells-style inspection of partial specs).
  std::vector<SweepCell> cells;
  std::string err;
  EXPECT_FALSE(expandSweep(spec, cells, err));
  EXPECT_NE(err.find("equal lengths"), std::string::npos);
}

TEST(SweepExpand, FileOrderApplication) {
  // `range = 0.8` placed after the alpha axis must rescale the noise
  // using each cell's alpha, not the base alpha (noise = P/(beta rt^alpha)
  // is alpha-dependent for rt != 1).
  const SweepSpec spec = parseSweep(
      "sweep.alpha = 2.5,4\n"
      "range = 0.8\n");
  std::vector<SweepCell> cells;
  std::string err;
  ASSERT_TRUE(expandSweep(spec, cells, err)) << err;
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_NEAR(cells[0].spec.sinr.transmissionRange(), 0.8, 1e-12);
  EXPECT_NEAR(cells[1].spec.sinr.transmissionRange(), 0.8, 1e-12);
  EXPECT_NE(cells[0].spec.sinr.noise, cells[1].spec.sinr.noise);
}

TEST(SweepExpand, InvalidCellFailsWithLabel) {
  // aloha requires channels = 1; the crossed cell with 2 channels is
  // invalid and must name itself in the diagnostic.
  const SweepSpec spec = parseSweep(
      "protocol = aloha\n"
      "sweep.channels = 1,2\n");
  std::vector<SweepCell> cells;
  std::string err;
  EXPECT_FALSE(expandSweep(spec, cells, err));
  EXPECT_NE(err.find("channels=2"), std::string::npos);
}

TEST(SweepShard, PartitionIsExactAndDisjoint) {
  for (const int k : {1, 2, 3, 5}) {
    for (int index = 0; index < 17; ++index) {
      int owners = 0;
      for (int i = 0; i < k; ++i) owners += cellInShard(index, i, k) ? 1 : 0;
      EXPECT_EQ(owners, 1) << "cell " << index << " with k=" << k;
    }
  }
}

TEST(SweepShard, ParseShardFlag) {
  int i = -1, k = -1;
  std::string err;
  EXPECT_TRUE(parseShard("0/2", i, k, err));
  EXPECT_EQ(i, 0);
  EXPECT_EQ(k, 2);
  EXPECT_TRUE(parseShard("4/5", i, k, err));
  EXPECT_FALSE(parseShard("2/2", i, k, err));
  EXPECT_FALSE(parseShard("-1/2", i, k, err));
  EXPECT_FALSE(parseShard("02", i, k, err));
  EXPECT_FALSE(parseShard("a/b", i, k, err));
}

/// A fast real campaign for runner-level tests.
SweepSpec tinySweep() {
  return parseSweep(
      "name = tiny\n"
      "base = uniform_square\n"
      "n = 60\n"
      "side = 1.0\n"
      "seeds = 2\n"
      "seed0 = 1\n"
      "sweep.channels = 1,2,4\n");
}

/// Everything per-seed except wall time (which legitimately varies).
void expectSeedResultsEqual(const SeedResult& a, const SeedResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.deployedN, b.deployedN);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.listens, b.listens);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_DOUBLE_EQ(a.decodeRate, b.decodeRate);
  EXPECT_EQ(a.structureSlots, b.structureSlots);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.validity, b.validity);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.error, b.error);
}

/// Runs `spec` inline (no forked workers) into `dir`.
campaign::WorkQueueCampaign runInline(const SweepSpec& spec, const std::string& dir,
                                      campaign::WorkQueueOptions opts = {}) {
  opts.outDir = dir;
  campaign::WorkQueueCampaign run;
  std::string err;
  EXPECT_TRUE(campaign::runCampaignWorkQueue(spec, opts, run, err)) << err;
  return run;
}

/// The per-seed rows of a campaign's cells, read back from its cell files.
std::vector<CellResult> loadCells(const campaign::WorkQueueCampaign& run, const std::string& dir) {
  std::vector<CellResult> out(run.cells.size());
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    std::string err;
    EXPECT_TRUE(loadCellResult(cellFilePath(dir, run.name, run.cells[i].cell.index), out[i], err))
        << err;
  }
  return out;
}

void expectSameSeedRows(const std::vector<CellResult>& a, const std::vector<CellResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].batch.perSeed.size(), b[i].batch.perSeed.size()) << "cell " << i;
    for (std::size_t s = 0; s < a[i].batch.perSeed.size(); ++s) {
      expectSeedResultsEqual(a[i].batch.perSeed[s], b[i].batch.perSeed[s]);
    }
  }
}

TEST(CampaignRunner, ShardsReproduceTheFullCampaign) {
  const SweepSpec spec = tinySweep();
  const std::string dir = testing::TempDir() + "sweep_shards";
  std::filesystem::remove_all(dir);
  const campaign::WorkQueueCampaign full = runInline(spec, dir + "/full");
  ASSERT_EQ(full.cells.size(), 3u);
  const std::vector<CellResult> fullCells = loadCells(full, dir + "/full");

  std::vector<const CellResult*> merged(3, nullptr);
  std::vector<CellResult> shardCells[2];
  for (int s = 0; s < 2; ++s) {
    campaign::WorkQueueOptions shardOpts;
    shardOpts.shardIndex = s;
    shardOpts.shardCount = 2;
    const std::string shardDir = dir + "/shard" + std::to_string(s);
    const campaign::WorkQueueCampaign shard = runInline(spec, shardDir, shardOpts);
    EXPECT_EQ(shard.totalCells, 3);
    shardCells[s] = loadCells(shard, shardDir);
    for (const CellResult& cell : shardCells[s]) {
      ASSERT_LT(static_cast<std::size_t>(cell.cell.index), merged.size());
      EXPECT_EQ(merged[static_cast<std::size_t>(cell.cell.index)], nullptr)
          << "cell owned by two shards";
      merged[static_cast<std::size_t>(cell.cell.index)] = &cell;
    }
  }
  // Together the shards cover exactly the full grid, bit-identical per cell.
  for (std::size_t i = 0; i < merged.size(); ++i) {
    ASSERT_NE(merged[i], nullptr) << "cell " << i << " unowned";
    EXPECT_EQ(merged[i]->cell.label, fullCells[i].cell.label);
    ASSERT_EQ(merged[i]->batch.perSeed.size(), fullCells[i].batch.perSeed.size());
    for (std::size_t s = 0; s < fullCells[i].batch.perSeed.size(); ++s) {
      expectSeedResultsEqual(merged[i]->batch.perSeed[s], fullCells[i].batch.perSeed[s]);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignRunner, ResumeSkipsExistingCells) {
  const SweepSpec spec = tinySweep();
  const std::string dir = testing::TempDir() + "sweep_resume";
  std::filesystem::remove_all(dir);
  const campaign::WorkQueueCampaign first = runInline(spec, dir);
  EXPECT_EQ(first.cachedCells(), 0);
  EXPECT_EQ(first.leases, 3u);

  campaign::WorkQueueOptions opts;
  opts.resume = true;
  const campaign::WorkQueueCampaign second = runInline(spec, dir, opts);
  EXPECT_EQ(second.cachedCells(), 3);
  EXPECT_EQ(second.leases, 0u);
  // The cached records carry the numbers the run produced.
  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(second.cells[i].failures, first.cells[i].failures);
    EXPECT_EQ(second.cells[i].delivered, first.cells[i].delivered);
    EXPECT_EQ(second.cells[i].slotsMean, first.cells[i].slotsMean);
    EXPECT_EQ(second.cells[i].decodeRateMean, first.cells[i].decodeRateMean);
  }

  // A stale cell file must be re-run, not trusted: a different seed
  // batch, but also any fixed scenario key the label doesn't show (the
  // stored spec fingerprint catches both).
  std::string err;
  SweepSpec changed = tinySweep();
  ASSERT_TRUE(applySweepOverride(changed, "seed0", "7", err)) << err;
  EXPECT_EQ(runInline(changed, dir, opts).cachedCells(), 0);

  SweepSpec resized = tinySweep();
  ASSERT_TRUE(applySweepOverride(resized, "n", "80", err)) << err;
  EXPECT_EQ(runInline(resized, dir, opts).cachedCells(), 0);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRunner, ResumeRerunsCorruptCellFilesAndLeavesNoTempFiles) {
  const SweepSpec spec = tinySweep();
  const std::string dir = testing::TempDir() + "sweep_resume_corrupt";
  std::filesystem::remove_all(dir);
  const campaign::WorkQueueCampaign first = runInline(spec, dir);
  const std::vector<CellResult> firstCells = loadCells(first, dir);

  // The atomic tmp+rename write must leave no *.tmp droppings behind.
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  // Truncate one cell file mid-JSON (what a pre-atomic-write crash used
  // to leave) and garbage another: resume must re-run both, and only
  // those two.
  const std::string cell0 = cellFilePath(dir, spec.name, 0);
  const std::string cell2 = cellFilePath(dir, spec.name, 2);
  {
    const std::string bytes = [&] {
      std::ifstream f(cell0, std::ios::binary);
      std::ostringstream ss;
      ss << f.rdbuf();
      return ss.str();
    }();
    ASSERT_GT(bytes.size(), 40u);
    std::ofstream f(cell0, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  {
    std::ofstream f(cell2, std::ios::binary | std::ios::trunc);
    f << "not json at all";
  }

  campaign::WorkQueueOptions opts;
  opts.resume = true;
  const campaign::WorkQueueCampaign second = runInline(spec, dir, opts);
  EXPECT_EQ(second.cachedCells(), 1);
  EXPECT_EQ(second.leases, 2u);
  EXPECT_FALSE(second.cells[0].fromCache);
  EXPECT_TRUE(second.cells[1].fromCache);
  EXPECT_FALSE(second.cells[2].fromCache);
  // The re-run repaired the files in place.
  expectSameSeedRows(loadCells(second, dir), firstCells);
  std::filesystem::remove_all(dir);
}

TEST(SweepReport, CellJsonRoundTrip) {
  const SweepSpec spec = tinySweep();
  std::vector<SweepCell> cells;
  std::string err;
  ASSERT_TRUE(expandSweep(spec, cells, err)) << err;
  ASSERT_EQ(cells.size(), 3u);
  CellResult cell;
  cell.cell = cells[1];
  cell.batch = runScenarioBatch(cells[1].spec, 1);

  const std::string path = testing::TempDir() + "cell_roundtrip.json";
  ASSERT_TRUE(writeCellFile(cell, path, err)) << err;
  CellResult loaded;
  ASSERT_TRUE(loadCellResult(path, loaded, err)) << err;
  EXPECT_EQ(loaded.cell.index, 1);
  EXPECT_EQ(loaded.cell.label, cell.cell.label);
  EXPECT_EQ(loaded.cell.assignments, cell.cell.assignments);
  EXPECT_TRUE(cellCacheMatches(loaded, cells[1]));
  ASSERT_EQ(loaded.batch.perSeed.size(), cell.batch.perSeed.size());
  for (std::size_t s = 0; s < loaded.batch.perSeed.size(); ++s) {
    const SeedResult& a = cell.batch.perSeed[s];
    const SeedResult& b = loaded.batch.perSeed[s];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.slots, b.slots);
    EXPECT_DOUBLE_EQ(a.decodeRate, b.decodeRate);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.validity, b.validity);
  }
  std::filesystem::remove(path);
}

/// A synthetic campaign with fixed numbers (no real runs), used by the
/// golden-layout and sweep_check tests: its cells are written as cell
/// files under `dir` with writeCellFile, and the returned records are
/// what the coordinator would hold for them.
campaign::WorkQueueCampaign syntheticCampaign(const std::string& dir, double wallScale = 1.0,
                                              double slotScale = 1.0) {
  campaign::WorkQueueCampaign campaign;
  campaign.name = "golden";
  campaign.baseName = "uniform_square";
  campaign.description = "golden: base=uniform_square channels[2]";
  campaign.totalCells = 2;
  campaign.wallSec = 0.25 * wallScale;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/sweep_cells/golden");
  for (int c = 0; c < 2; ++c) {
    CellResult cell;
    cell.cell.index = c;
    cell.cell.label = "channels=" + std::to_string(c + 1);
    cell.cell.assignments = {{"channels", std::to_string(c + 1)}};
    cell.cell.spec.name = cell.cell.label;
    cell.cell.spec.channels = c + 1;
    cell.cell.spec.seeds = 2;
    cell.cell.spec.seed0 = 1;
    cell.batch.spec = cell.cell.spec;
    for (int s = 0; s < 2; ++s) {
      SeedResult r;
      r.seed = static_cast<std::uint64_t>(1 + s);
      r.deployedN = 60;
      r.slots = static_cast<std::uint64_t>((1000 + 100 * c + 10 * s) * slotScale);
      r.transmissions = 500;
      r.listens = 400;
      r.decodes = 300;
      r.decodeRate = 0.75;
      r.structureSlots = 200;
      r.delivered = true;
      r.validity = OutcomeValidity::Valid;
      r.metrics.set("agg_value", 0.5 + 0.25 * s);
      r.metrics.set("uplink_slots", 120 + 5 * c);
      r.wallSec = (0.1 + 0.01 * s) * wallScale;
      cell.batch.perSeed.push_back(std::move(r));
    }
    std::string err;
    EXPECT_TRUE(writeCellFile(cell, cellFilePath(dir, campaign.name, c), err)) << err;
    campaign::CellRecord rec;
    rec.cell = cell.cell;
    rec.failures = cell.batch.failures();
    rec.delivered = cell.batch.deliveredCount();
    rec.valid = cell.batch.validCount();
    rec.invalid = cell.batch.invalidCount();
    campaign.cells.push_back(std::move(rec));
  }
  return campaign;
}

/// The campaign report the one writer splices for `campaign`, parsed.
Json reportJson(const campaign::WorkQueueCampaign& campaign, const std::string& dir) {
  std::string path, err;
  EXPECT_TRUE(campaign::writeWorkQueueCampaignReport(campaign, dir, dir, path, err)) << err;
  Json j;
  EXPECT_TRUE(Json::parseFile(path, j, err)) << err;
  return j;
}

/// The synthetic campaign's report, in its own directory per `tag`.
Json syntheticReport(const std::string& tag, double wallScale = 1.0, double slotScale = 1.0) {
  const std::string dir = testing::TempDir() + "synthetic_" + tag;
  return reportJson(syntheticCampaign(dir, wallScale, slotScale), dir);
}

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(SweepReport, GoldenJsonAndCsvLayout) {
  const std::string dir = testing::TempDir() + "golden_campaign";
  const campaign::WorkQueueCampaign campaign = syntheticCampaign(dir);
  std::string jsonPath, err;
  ASSERT_TRUE(campaign::writeWorkQueueCampaignReport(campaign, dir, dir, jsonPath, err)) << err;
  EXPECT_EQ(readFile(jsonPath),
            readFile(std::string(MCS_SOURCE_DIR) + "/tests/golden/campaign.json"))
      << "campaign JSON layout changed: refresh tests/golden/campaign.json AND the "
         "committed sweeps/baseline.json (see sweeps/smoke.sweep)";

  const std::string csvPath = dir + "/golden_campaign.csv";
  ASSERT_TRUE(campaign::writeWorkQueueCampaignCsv(campaign, dir, csvPath, err)) << err;
  EXPECT_EQ(readFile(csvPath),
            readFile(std::string(MCS_SOURCE_DIR) + "/tests/golden/campaign.csv"))
      << "campaign CSV layout changed: refresh tests/golden/campaign.csv";
  std::filesystem::remove_all(dir);
}

TEST(SweepCheck, PassesOnIdenticalCampaigns) {
  const Json a = syntheticReport("a");
  const Json b = syntheticReport("b");
  const SweepCheckResult r = compareCampaigns(a, b, SweepCheckOptions{});
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_EQ(r.cellsCompared, 2);
  EXPECT_GT(r.metricsCompared, 0);
}

TEST(SweepCheck, FailsOnInjectedWallTimeRegression) {
  const Json baseline = syntheticReport("wall_baseline");
  // 20% slower everywhere, identical metrics.
  const Json slower = syntheticReport("slower", 1.2);
  SweepCheckOptions opts;
  opts.wallTol = 0.1;
  const SweepCheckResult r = compareCampaigns(baseline, slower, opts);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations[0].find("wall_sec regression"), std::string::npos);

  // The same 20% is fine under a 50% tolerance...
  opts.wallTol = 0.5;
  EXPECT_TRUE(compareCampaigns(baseline, slower, opts).ok());
  // ...and a *speedup* never fails, even at zero tolerance.
  opts.wallTol = 0.0;
  const Json faster = syntheticReport("faster", 0.5);
  EXPECT_TRUE(compareCampaigns(baseline, faster, opts).ok());
}

TEST(SweepCheck, FailsOnMetricDrift) {
  const Json baseline = syntheticReport("drift_baseline");
  const Json drifted = syntheticReport("drifted", 1.0, 1.1);  // slots +10%
  SweepCheckOptions opts;
  opts.metricTol = 0.05;
  const SweepCheckResult r = compareCampaigns(baseline, drifted, opts);
  EXPECT_FALSE(r.ok());
  bool slotsFlagged = false;
  for (const std::string& v : r.violations) {
    slotsFlagged = slotsFlagged || v.find("metric slots drift") != std::string::npos;
  }
  EXPECT_TRUE(slotsFlagged);
  opts.metricTol = 0.2;
  EXPECT_TRUE(compareCampaigns(baseline, drifted, opts).ok());
}

TEST(SweepCheck, MissingCellsAndSubsets) {
  const Json baseline = syntheticReport("missing_baseline");
  const std::string halfDir = testing::TempDir() + "synthetic_half";
  campaign::WorkQueueCampaign half = syntheticCampaign(halfDir);
  half.cells.pop_back();
  const Json candidate = reportJson(half, halfDir);
  SweepCheckOptions opts;
  EXPECT_FALSE(compareCampaigns(baseline, candidate, opts).ok());
  opts.allowMissing = true;
  EXPECT_TRUE(compareCampaigns(baseline, candidate, opts).ok());
  // Baseline-less garbage never passes.
  EXPECT_FALSE(compareCampaigns(Json::object(), candidate, opts).ok());
}

TEST(SweepPresets, EveryPresetParsesAndExpands) {
  for (const SweepPresetInfo& info : SweepRegistry::list()) {
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(SweepRegistry::find(info.name, spec, err)) << info.name << ": " << err;
    EXPECT_EQ(spec.name, info.name);
    std::vector<SweepCell> cells;
    ASSERT_TRUE(expandSweep(spec, cells, err)) << info.name << ": " << err;
    EXPECT_GE(cells.size(), 2u) << info.name;
    EXPECT_FALSE(info.description.empty());
  }
}

TEST(SweepPresets, CommittedFilesMatchPresets) {
  // The committed sweeps/*.sweep files and the embedded presets must
  // expand to the same campaigns (same cells, same specs).
  for (const char* name : {"e2_scaling", "e8_robustness", "e8_uncertainty", "e10_mobility"}) {
    SweepSpec fromPreset, fromFile;
    std::string err;
    ASSERT_TRUE(SweepRegistry::find(name, fromPreset, err)) << err;
    ASSERT_TRUE(loadSweepFile(fromFile,
                              std::string(MCS_SOURCE_DIR) + "/sweeps/" + name + ".sweep", err))
        << err;
    EXPECT_EQ(fromFile.name, fromPreset.name);
    std::vector<SweepCell> presetCells, fileCells;
    ASSERT_TRUE(expandSweep(fromPreset, presetCells, err)) << err;
    ASSERT_TRUE(expandSweep(fromFile, fileCells, err)) << err;
    ASSERT_EQ(fileCells.size(), presetCells.size()) << name;
    for (std::size_t i = 0; i < fileCells.size(); ++i) {
      EXPECT_EQ(fileCells[i].label, presetCells[i].label) << name;
      EXPECT_EQ(describeScenario(fileCells[i].spec), describeScenario(presetCells[i].spec))
          << name;
    }
  }
}

TEST(SweepPresets, FigurePresetsReportTheirColumns) {
  // Each paper experiment is a preset: its table is a sweep_query over
  // the store, so every measured (non-derived) column of the experiment
  // must be a cell column.  The first cell of each preset runs shrunk to
  // one seed at a small n and must pass its driver's audit (for E7 that
  // is the §1 bound: at most one descending sender at F = 1).
  struct Figure {
    const char* preset;
    const char* protocol;  // override ("" keeps the preset's)
    int n;                 // shrunk size (0 keeps the preset's)
    std::vector<std::string> columns;
  };
  const std::vector<Figure> figures = {
      // E1 (Thm 22): slots per stage; the speedup over F = 1 is derived.
      {"e1_speedup", "", 300, {"uplink_slots", "agg_slots", "structure_slots"}},
      {"e1_speedup", "aloha", 300, {"uplink_slots", "agg_slots", "structure_slots"}},
      // E3 (Thm 10): per-stage structure cost; total / ln^2 n is derived.
      {"e3_structure",
       "",
       0,
       {"clusters", "ds_slots", "cluster_coloring_slots", "csa_slots", "reporter_slots",
        "structure_slots"}},
      // E4 (Thm 24): classes / Delta is derived.
      {"e4_coloring",
       "",
       200,
       {"coloring_uplink_slots", "coloring_tree_slots", "coloring_assign_slots",
        "color_classes", "delta", "wall_sec"}},
      // E5 (Lemma 6): rounds / ln n is derived.
      {"e5_ruling",
       "",
       0,
       {"ruling_set_size", "ruling_rounds", "independence_violations", "unbound",
        "max_density", "wall_sec"}},
      // E6 (Lemmas 12-14), including E3's naive-vs-tight DeltaHat column.
      {"e6_csa", "", 200, {"csa_slots", "csa_worst_ratio", "clusters", "max_cluster", "wall_sec"}},
      // E7 (the §1 chain lower bound).
      {"e7_chain", "", 0, {"max_descending", "mean_descending", "max_total", "mean_total"}},
      // E9 (Lemmas 19-21).  Delta is a deployment property: the coloring
      // driver reports it for the same seeds.
      {"e9_contention",
       "",
       200,
       {"uplink_max_phases", "uplink_increasing_phases", "uplink_unchanging_phases",
        "uplink_max_contention_ratio", "uplink_slots"}},
  };
  for (const Figure& fig : figures) {
    SCOPED_TRACE(std::string(fig.preset) + " " + fig.protocol);
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(SweepRegistry::find(fig.preset, spec, err)) << err;
    std::vector<SweepCell> cells;
    ASSERT_TRUE(expandSweep(spec, cells, err)) << err;
    ASSERT_FALSE(cells.empty());
    CellResult cell;
    cell.cell = cells.front();
    ScenarioSpec& scenario = cell.cell.spec;
    scenario.seeds = 1;
    if (fig.n > 0) scenario.deployment.n = fig.n;
    if (*fig.protocol != '\0') {
      ASSERT_TRUE(applyScenarioKey(scenario, "protocol", fig.protocol, err)) << err;
    }
    cell.batch = runScenarioBatch(scenario, 1);
    ASSERT_EQ(cell.batch.failures(), 0) << cell.batch.perSeed.front().error;
    EXPECT_EQ(cell.batch.invalidCount(), 0);
    std::vector<std::string> names;
    for (const auto& [name, stats] : cellStats(cell)) names.push_back(name);
    for (const std::string& column : fig.columns) {
      EXPECT_TRUE(std::find(names.begin(), names.end(), column) != names.end()) << column;
    }
  }
}

TEST(SweepFiles, SmokeBaselineMatchesAFreshRun) {
  // The CI gate in miniature: run sweeps/smoke.sweep and check it against
  // the committed baseline.  Metrics must agree to CI tolerance; wall
  // time is effectively unconstrained here (machines differ).
  SweepSpec spec;
  std::string err;
  ASSERT_TRUE(loadSweepFile(spec, std::string(MCS_SOURCE_DIR) + "/sweeps/smoke.sweep", err))
      << err;
  const std::string dir = testing::TempDir() + "sweep_smoke";
  std::filesystem::remove_all(dir);
  const Json candidate = reportJson(runInline(spec, dir), dir);

  Json baseline;
  ASSERT_TRUE(
      Json::parseFile(std::string(MCS_SOURCE_DIR) + "/sweeps/baseline.json", baseline, err))
      << err;
  SweepCheckOptions check;
  check.metricTol = 0.2;
  check.wallTol = 1e9;
  const SweepCheckResult r = compareCampaigns(baseline, candidate, check);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0])
                      << "\n(seed pipeline changed? regenerate sweeps/baseline.json per "
                         "sweeps/smoke.sweep)";
  std::filesystem::remove_all(dir);
}

TEST(ScenarioBounds, WidthDegradesKnowledgeDeterministically) {
  ScenarioSpec spec;
  spec.deployment.n = 300;
  spec.deployment.side = 1.0;
  spec.seeds = 1;

  // bounds_width = 0 is the exact-knowledge contract: identical to the
  // default spec, bit for bit.
  const SeedResult exact = runScenarioSeed(spec, 11);
  spec.boundsWidth = 0.0;
  const SeedResult zero = runScenarioSeed(spec, 11);
  EXPECT_EQ(exact.slots, zero.slots);
  EXPECT_EQ(exact.metrics, zero.metrics);

  // Degraded knowledge changes protocol behavior (conservative ranges),
  // and the same width reproduces the same run.
  spec.boundsWidth = 0.4;
  const SeedResult wide = runScenarioSeed(spec, 11);
  const SeedResult wide2 = runScenarioSeed(spec, 11);
  EXPECT_EQ(wide.slots, wide2.slots);
  EXPECT_NE(wide.slots, exact.slots);

  spec.boundsWidth = -0.1;
  EXPECT_FALSE(validateScenario(spec).empty());
}

TEST(ScenarioSpec, FlagOverridesApplyInCommandLineOrder) {
  // --range before --alpha must rescale with the *default* alpha and then
  // change alpha (file-order semantics); alphabetical application would
  // silently give R_T = 0.8 again.
  const char* argv[] = {"prog", "--range=0.8", "--alpha=4"};
  const Args args(3, argv);
  ScenarioSpec spec;
  std::string err;
  ASSERT_TRUE(applyScenarioArgs(spec, args, {}, err)) << err;
  EXPECT_DOUBLE_EQ(spec.sinr.alpha, 4.0);
  EXPECT_NEAR(spec.sinr.transmissionRange(), std::pow(0.8, 3.0 / 4.0), 1e-12);
}

TEST(ScenarioSpec, KeyValuesSerializationRoundTrips) {
  ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.deployment.kind = DeploymentKind::Clustered;
  spec.deployment.n = 777;
  spec.deployment.spread = 0.061;
  spec.sinr.alpha = 2.5;
  spec.sinr = spec.sinr.withRange(0.9);
  spec.sinr.fading.model = FadingModel::Lognormal;
  spec.sinr.fading.shadowSigmaDb = 4.5;
  spec.boundsWidth = 0.2;
  spec.protocol = ProtocolKind::Csa;
  spec.csaVariant = CsaVariant::Small;
  spec.seeds = 5;
  spec.seed0 = 123;

  const std::string path = testing::TempDir() + "scenario_roundtrip.txt";
  {
    std::ofstream f(path);
    f << scenarioToKeyValues(spec);
  }
  ScenarioSpec loaded;
  std::string err;
  ASSERT_TRUE(loadScenarioFile(loaded, path, err)) << err;
  EXPECT_EQ(scenarioToKeyValues(loaded), scenarioToKeyValues(spec));
  EXPECT_DOUBLE_EQ(loaded.sinr.noise, spec.sinr.noise);
  EXPECT_EQ(loaded.protocol, ProtocolKind::Csa);
  std::filesystem::remove(path);
}

TEST(SweepJson, ParserBasics) {
  Json v;
  std::string err;
  ASSERT_TRUE(Json::parse(R"({"a": 1.5, "b": [1, 2, {"c": "x,\"y\""}], "d": null,
                             "e": true})",
                          v, err))
      << err;
  EXPECT_DOUBLE_EQ(v.numberAt("a"), 1.5);
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_EQ(v.find("b")->items()[2].stringAt("c"), "x,\"y\"");
  EXPECT_TRUE(v.find("d")->isNull());
  EXPECT_TRUE(v.find("e")->asBool());
  // Round trip.
  Json again;
  ASSERT_TRUE(Json::parse(v.dump(), again, err)) << err;
  EXPECT_EQ(v.dump(), again.dump());

  EXPECT_FALSE(Json::parse("{\"a\": }", v, err));
  EXPECT_FALSE(Json::parse("[1, 2", v, err));
  EXPECT_FALSE(Json::parse("nope", v, err));
  EXPECT_FALSE(Json::parse("{} junk", v, err));
}

}  // namespace
}  // namespace mcs
