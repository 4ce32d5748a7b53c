// The campaign_store workload: a single-protocol agg_max sweep (F x n x
// beta) run through runCampaignWorkQueue with two forked workers,
// streaming into an MCSSTOR1 store, which is checked against the campaign's
// cell records.  The traced run also times a mixed query phase against the
// store.  The sweep stays single-protocol: the first cell binds the store's
// metric schema, so a sweep over `protocol` cannot write one store.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "campaign/coordinator.h"
#include "report.h"
#include "store/reader.h"
#include "sweep/expand.h"
#include "sweep/spec.h"
#include "telemetry/trace.h"
#include "util/clock.h"

namespace perfbench {

namespace {

using mcs::nowSec;

constexpr int kWorkers = 2;

std::string sweepText(const Options& opts) {
  std::string t =
      "name = perfbench_campaign\n"
      "base = uniform_square\n"
      "protocol = agg_max\n"
      "side = 1.0\n"
      "seeds = 2\n"
      "seed0 = " +
      std::to_string(opts.seed * 1000 + 1) + "\n";
  t += opts.small ? "sweep.channels = 1,8\nsweep.n = 60,100\nsweep.beta = 1.5\n"
                  : "sweep.channels = 1,2,4,8\nsweep.n = 60,80,100,120\nsweep.beta = 1.5,2,2.5\n";
  return t + "range = 1.0\n";  // after beta: keeps R_T = 1 in every cell
}

/// Parse and expand the sweep (the campaign's set-up).
bool expandOnce(const std::string& text, mcs::SweepSpec& spec, std::vector<mcs::SweepCell>& cells,
                std::string& err) {
  spec = mcs::SweepSpec{};
  return mcs::parseSweepText(spec, text, "perfbench_campaign", "", err) &&
         mcs::expandSweep(spec, cells, err);
}

/// The query mix: a group-by, a where-filter and a tm. selector, and every
/// tenth query reads every metric per n.
std::vector<mcs::store::StoreQuery> campaignQueries() {
  std::array<mcs::store::StoreQuery, 3> kinds;
  kinds[0].metrics = {"slots"};
  kinds[0].groupBy = "channels";
  kinds[1].metrics = {"slots", "decode_rate"};
  kinds[1].where = {{"n", "100"}};
  kinds[2].metrics = {"tm.medium.decodes"};
  kinds[2].groupBy = "beta";
  return queryRotation(kinds, "n");
}

/// A cell succeeds when every seed finished, delivered and was Valid.
bool cellOk(const mcs::campaign::CellRecord& c) {
  return c.failures == 0 && c.delivered == c.cell.spec.seeds && c.valid == c.cell.spec.seeds;
}

struct CampaignRun {
  mcs::campaign::WorkQueueCampaign out;
  std::string storePath;
  double wallSec = 0.0;
};

/// One campaign into its own directory under the run's scratch space.
bool runOneCampaign(const Options& opts, const mcs::SweepSpec& spec, int k, CampaignRun& run,
                    Result& r) {
  const std::string dir = opts.workDir + "/campaign" + std::to_string(k);
  std::filesystem::create_directories(dir);
  mcs::campaign::WorkQueueOptions o;
  o.workers = kWorkers;
  o.outDir = dir;
  o.storePath = dir + "/campaign.store";
  std::string err;
  const double t0 = nowSec();
  const bool ok = mcs::campaign::runCampaignWorkQueue(spec, o, run.out, err);
  run.wallSec = nowSec() - t0;
  run.storePath = o.storePath;
  r.check(ok, "campaign " + std::to_string(k) + ": " + err);
  r.attempted(run.out.cells.size());
  for (const mcs::campaign::CellRecord& c : run.out.cells) {
    if (cellOk(c)) continue;
    const int seeds = c.cell.spec.seeds;
    r.failedUnit("campaign cell " + c.cell.label + ": " + std::to_string(c.failures) +
                 " threw, " + std::to_string(c.delivered) + " delivered, " +
                 std::to_string(c.valid) + " valid of " + std::to_string(seeds));
  }
  return ok;
}

const mcs::StreamingStats* findStats(const mcs::NamedStats& s, const std::string& name) {
  for (const auto& [n, st] : s) {
    if (n == name) return &st;
  }
  return nullptr;
}

/// Every non-wall metric of two campaigns over the same cells must agree
/// bit for bit (the reduction is a pure function of the cells).
void checkSameReduction(const mcs::NamedStats& a, const mcs::NamedStats& b,
                        const std::string& what, Result& r) {
  r.check(a.size() == b.size(), what + ": metric sets differ");
  for (const auto& [name, st] : a) {
    if (name == "wall_sec") continue;
    const mcs::StreamingStats* o = findStats(b, name);
    r.check(o && o->moments.count() == st.moments.count() &&
                o->moments.mean() == st.moments.mean() && o->moments.m2() == st.moments.m2(),
            what + ": metric " + name + " differs");
  }
}

bool close(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

/// The store's group-by over channels must equal a direct merge of the
/// campaign's cell records, and its ungrouped view the tree reduction.
void checkStore(const mcs::store::StoreReader& reader, const CampaignRun& run, Result& r) {
  mcs::store::StoreQuery byF;
  byF.metrics = {"slots"};
  byF.groupBy = "channels";
  std::vector<mcs::store::QueryGroup> groups;
  std::string err;
  r.check(mcs::store::runStoreQuery(reader, byF, groups, err), "store group-by: " + err);
  struct Expect {
    std::uint64_t cells = 0;
    double seeds = 0.0;
    double slots = 0.0;
  };
  std::map<std::string, Expect> want;
  for (const mcs::campaign::CellRecord& c : run.out.cells) {
    for (const auto& [key, value] : c.cell.assignments) {
      if (key != "channels") continue;
      Expect& e = want[value];
      const double n = c.cell.spec.seeds - c.failures;
      e.cells += 1;
      e.seeds += n;
      e.slots += n * c.slotsMean;
    }
  }
  r.check(groups.size() == want.size(), "store group-by: group count differs");
  for (const mcs::store::QueryGroup& g : groups) {
    const Expect& e = want[g.key];
    const mcs::OnlineStats& m = g.stats.front().second.moments;
    r.check(g.cells == e.cells && static_cast<double>(m.count()) == e.seeds &&
                close(m.mean(), e.slots / e.seeds),
            "store group channels=" + g.key + " differs from the cell records");
  }
  mcs::store::StoreQuery all;
  r.check(mcs::store::runStoreQuery(reader, all, groups, err) && groups.size() == 1,
          "store ungrouped query: " + err);
  if (groups.size() != 1) return;
  for (const auto& [name, st] : run.out.reduction) {
    const mcs::StreamingStats* got = findStats(groups[0].stats, name);
    r.check(got && got->moments.count() == st.moments.count() &&
                got->moments.min() == st.moments.min() &&
                got->moments.max() == st.moments.max() &&
                close(got->moments.mean(), st.moments.mean()),
            "store metric " + name + " differs from the campaign reduction");
  }
}

/// Sums the per-cell telemetry blobs into a snapshot ("tm.X" counters,
/// "tm.X.sec"/"tm.X.count" timers), so worker-side layers read like a
/// local diff.
mcs::telemetry::MetricsSnapshot workerTelemetry(const mcs::store::StoreReader& reader,
                                                Result& r) {
  std::map<std::string, double> sums;
  std::vector<std::pair<std::string, double>> entries;
  std::string err;
  for (std::size_t row = 0; row < reader.cells(); ++row) {
    r.check(reader.telemetryAt(row, entries, err), "store telemetry: " + err);
    for (const auto& [name, v] : entries) sums[name] += v;
  }
  // "tm.X.sec" with "tm.X.count" is timer X; any other "tm.X" is counter X.
  const auto endsWith = [](const std::string& name, const std::string& suffix) {
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  mcs::telemetry::MetricsSnapshot s;
  for (const auto& [name, v] : sums) {
    if (name.rfind("tm.", 0) != 0 || endsWith(name, ".count")) continue;
    if (endsWith(name, ".sec")) {
      const std::string base = name.substr(0, name.size() - 4);
      const auto count = sums.find(base + ".count");
      mcs::telemetry::TimerSample t;
      t.name = base.substr(3);
      t.count = count == sums.end() ? 0 : static_cast<std::uint64_t>(count->second);
      t.totalSec = v;
      s.timers.push_back(t);
    } else {
      s.counters.push_back({name.substr(3), static_cast<std::uint64_t>(v)});
    }
  }
  return s;
}

double reductionMean(const mcs::NamedStats& s, const char* name) {
  const mcs::StreamingStats* st = findStats(s, name);
  return st ? st->moments.mean() : 0.0;
}

double campaignSlots(const CampaignRun& run) {
  const mcs::StreamingStats* st = findStats(run.out.reduction, "slots");
  return st ? st->moments.sum() : 0.0;
}

void runTraced(const Options& opts, const mcs::SweepSpec& spec, Result& r) {
  CampaignRun ref;
  runOneCampaign(opts, spec, 0, ref, r);

  const mcs::telemetry::TraceNameId campaignSpan = mcs::telemetry::traceName("campaign.run");
  const mcs::telemetry::TraceNameId openSpan = mcs::telemetry::traceName("store.open");
  const mcs::telemetry::TraceNameId querySpan = mcs::telemetry::traceName("store.queries");
  constexpr std::size_t kRing = std::size_t{1} << 19;
  mcs::telemetry::setEnabled(true);
  mcs::telemetry::setTraceEnabled(true, kRing);
  const mcs::telemetry::MetricsSnapshot before = mcs::telemetry::snapshotMetrics();
  CampaignRun run;
  {
    const mcs::telemetry::TraceScope span(campaignSpan);
    runOneCampaign(opts, spec, 1, run, r);
  }
  const mcs::telemetry::MetricsSnapshot d = mcs::telemetry::snapshotMetrics().diff(before);
  checkSameReduction(ref.out.reduction, run.out.reduction, "traced campaign vs untraced", r);

  mcs::store::StoreReader reader;
  std::string err;
  double openSec = 0.0;
  {
    const mcs::telemetry::TraceScope span(openSpan);
    const double o0 = nowSec();
    r.check(reader.open(run.storePath, err), "store open: " + err);
    openSec = nowSec() - o0;
  }
  if (reader.cells() == 0) return;
  checkStore(reader, run, r);
  const mcs::telemetry::MetricsSnapshot q0 = mcs::telemetry::snapshotMetrics();
  QueryPhase q(reader, campaignQueries());
  {
    const mcs::telemetry::TraceScope span(querySpan);
    q.run(2000, opts.seconds * (opts.small ? 0.05 : 0.1), r);
  }
  const mcs::telemetry::MetricsSnapshot qd = mcs::telemetry::snapshotMetrics().diff(q0);
  mcs::telemetry::setTraceEnabled(false);
  mcs::telemetry::setEnabled(false);

  const double cells = static_cast<double>(run.out.cells.size());
  double busy = 0.0;
  for (const mcs::campaign::CellRecord& c : run.out.cells) busy += c.wallSec;
  const double slots = campaignSlots(run);
  const mcs::telemetry::MetricsSnapshot w = workerTelemetry(reader, r);
  const double resolve = reportMediumLayers(w, slots, r);
  const double driver = timerSec(w, "driver.run");
  r.metric("sim.self_us_per_slot", 1e6 * std::max(0.0, driver - resolve) / slots, "us");
  r.metric("agg.structure_slots", reductionMean(run.out.reduction, "structure_slots"), "slots");
  r.metric("agg.aggregate_slots", reductionMean(run.out.reduction, "agg_slots"), "slots");
  r.metric("agg.uplink_slots", reductionMean(run.out.reduction, "uplink_slots"), "slots");
  r.metric("campaign.cell_s", busy / cells, "s");
  r.metric("campaign.lease_rtt_us", timerMeanUs(d, "campaign.lease_rtt"), "us");
  r.metric("campaign.reduce_us", timerMeanUs(d, "campaign.reduce"), "us");
  r.metric("campaign.worker_busy_frac", busy / (kWorkers * run.wallSec), "fraction");
  r.metric("campaign.requeues", static_cast<double>(run.out.requeues), "count");
  r.metric("store.write_cell_us", timerMeanUs(d, "store.write_cell"), "us");
  r.metric("store.bytes_per_cell", static_cast<double>(reader.fileBytes()) / cells, "bytes");
  r.metric("store.open_us", 1e6 * openSec, "us");
  r.metric("store.scan_us", timerMeanUs(qd, "query.scan"), "us");
  r.metric("store.sketch_merges_per_query",
           static_cast<double>(qd.counterOr("store.sketch_merges")) /
               static_cast<double>(q.latencyUs().count()),
           "count");
  r.metric("store.query_p50_us", q.latencyUs().quantile(0.50), "us");
  r.metric("store.query_p99_us", q.latencyUs().quantile(0.99), "us");
  r.metric("trace.overhead", run.wallSec / ref.wallSec, "ratio");

  const std::size_t events = mcs::telemetry::traceEventCount();
  r.check(events < kRing, "trace ring overflowed; spans were lost");
  const std::string tracePath = opts.workDir + "/trace.json";
  r.check(mcs::telemetry::writeTraceFile(tracePath, err, 1, "perfbench campaign_store"),
          "trace write: " + err);
  r.setTraceFile(tracePath, events);

  LayerTree tree;
  const int root = tree.add("traced phase", run.wallSec + openSec + q.seconds());
  const int camp = tree.add("campaign.run", run.wallSec, root);
  tree.add("store.open", openSec, root);
  const int queries = tree.add("store.queries", q.seconds(), root);
  const int cellsNode =
      tree.add("worker cells (busy / " + std::to_string(kWorkers) + " workers)", busy / kWorkers,
               camp);
  tree.add("store.write_cell", timerSec(d, "store.write_cell"), camp);
  tree.add("campaign.reduce", timerSec(d, "campaign.reduce"), camp);
  tree.add("scenario.deploy", timerSec(w, "scenario.deploy") / kWorkers, cellsNode);
  const int drv = tree.add("driver.run", driver / kWorkers, cellsNode);
  const int res = tree.add("medium.resolve_slot", resolve / kWorkers, drv);
  tree.add("medium.populate", timerSec(w, "medium.populate") / kWorkers, res);
  tree.add("medium.sweep", timerSec(w, "medium.sweep") / kWorkers, res);
  tree.add("query.scan", timerSec(qd, "query.scan"), queries);
  tree.print(stdout, "campaign_store (" + std::to_string(run.out.cells.size()) + " cells, " +
                         std::to_string(kWorkers) + " workers)");
  r.metric("trace.coverage", tree.minCoverage(), "fraction");
}

}  // namespace

bool runCampaignWorkload(const Options& opts, Result& r) {
  const std::string text = sweepText(opts);
  mcs::SweepSpec spec;
  std::vector<mcs::SweepCell> cells;
  std::string err;
  if (!expandOnce(text, spec, cells, err)) {
    std::fprintf(stderr, "perfbench: sweep: %s\n", err.c_str());
    return false;
  }
  if (opts.trace) {
    runTraced(opts, spec, r);
    return true;
  }
  // Set-up, part one: sweep parse and expansion.
  double setupSec = medianSetupSec(opts, [&] { expandOnce(text, spec, cells, err); });

  // Measured phase: whole campaigns while another one still fits in
  // --seconds.  The
  // first campaign's store is checked against its cell records; each later
  // campaign must reduce to the same statistics.
  double wall = 0.0, slots = 0.0, seeds = 0.0, cellCount = 0.0;
  int campaigns = 0;
  mcs::StreamingStats seedWall;
  const auto account = [&](const CampaignRun& run) {
    ++campaigns;
    wall += run.wallSec;
    slots += campaignSlots(run);
    cellCount += static_cast<double>(run.out.cells.size());
    if (const mcs::StreamingStats* w = findStats(run.out.reduction, "wall_sec")) {
      seedWall.merge(*w);
      seeds += static_cast<double>(w->moments.count());
    }
  };
  CampaignRun first;
  if (!runOneCampaign(opts, spec, 0, first, r) || first.out.cells.empty()) return true;
  account(first);

  // Set-up, part two: opening the store.
  setupSec += medianSetupSec(opts, [&] {
    mcs::store::StoreReader probe;
    r.check(probe.open(first.storePath, err), "store open: " + err);
  });
  {
    mcs::store::StoreReader reader;
    r.check(reader.open(first.storePath, err), "store open: " + err);
    if (reader.cells() > 0) checkStore(reader, first, r);
  }
  for (int k = 1; wall + wall / k <= opts.seconds; ++k) {
    CampaignRun run;
    if (!runOneCampaign(opts, spec, k, run, r)) break;
    checkSameReduction(first.out.reduction, run.out.reduction, "repeated campaign", r);
    std::filesystem::remove_all(std::filesystem::path(run.storePath).parent_path());
    account(run);
  }

  r.metric("setup_s", setupSec, "s");
  r.metric("slots_per_s", slots / wall, "slots/s");
  r.metric("seed_p50_s", seedWall.quantiles.quantile(0.5), "s");
  r.metric("slots_per_seed", slots / seeds, "slots");
  r.metric("ok_frac",
           static_cast<double>(std::count_if(first.out.cells.begin(), first.out.cells.end(),
                                             cellOk)) /
               static_cast<double>(first.out.cells.size()),
           "fraction");
  std::printf("campaign_store: %d campaigns, %.0f cells, %.0f seeds in %.3f s\n", campaigns,
              cellCount, seeds, wall);
  return true;
}

}  // namespace perfbench
