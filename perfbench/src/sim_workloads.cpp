// The three simulation workloads: agg_static, agg_mobile and farfield.
//
// Each run deploys a fixed set of seeds (drawn from --seed), times the
// set-up of every input, then runs the protocol driver over the inputs,
// cycling through them until the measured phase is full.  The traced run
// repeats a few seeds with telemetry and the Chrome trace armed, calling
// buildStructure and runAggregation in stages, and must reproduce the
// untraced seeds exactly.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "mobility/mobility.h"
#include "report.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/trace.h"
#include "util/clock.h"

namespace perfbench {

namespace {

using mcs::nowSec;

struct SimConfig {
  mcs::ScenarioSpec spec;
  /// Distinct seeds per run; the measured phase cycles through them.
  int inputs = 1;
  /// Seeds repeated by the traced run.
  int traceInputs = 1;
};

/// Rescales a uniform deployment to `n` nodes at the preset's density.
void scaleTo(mcs::ScenarioSpec& s, int n) {
  s.deployment.side *= std::sqrt(static_cast<double>(n) / s.deployment.n);
  s.deployment.n = n;
}

bool simConfig(const Options& opts, SimConfig& c, std::string& err) {
  const bool small = opts.small;
  if (opts.workload == "agg_static") {
    if (!mcs::ScenarioRegistry::find("uniform_square", c.spec)) err = "no uniform_square preset";
    c.inputs = small ? 2 : 32;
    c.traceInputs = small ? 1 : 3;
  } else if (opts.workload == "agg_mobile") {
    if (!mcs::ScenarioRegistry::find("mobile_agg_max", c.spec)) err = "no mobile_agg_max preset";
    c.inputs = small ? 1 : 4;
    c.traceInputs = small ? 1 : 2;
  } else if (opts.workload == "farfield") {
    if (!mcs::ScenarioRegistry::find("ruling_field", c.spec)) err = "no ruling_field preset";
    scaleTo(c.spec, 10000);
    c.spec.sinr.mediumMode = mcs::MediumMode::Hierarchical;
    c.spec.channels = 1;
    c.inputs = small ? 1 : 4;
    c.traceInputs = small ? 1 : 2;
  } else {
    err = "unknown workload " + opts.workload;
  }
  if (small && err.empty()) scaleTo(c.spec, opts.workload == "farfield" ? 4000 : 100);
  return err.empty();
}

std::uint64_t inputSeed(const Options& opts, int i) {
  return opts.seed * 1000 + static_cast<std::uint64_t>(i) + 1;
}

/// Steps one and two of the per-seed contract (scenario/runner.h):
/// deployment, then the Network.
std::unique_ptr<mcs::Network> makeNetwork(const mcs::ScenarioSpec& spec, std::uint64_t seed) {
  mcs::Rng deployRng(seed);
  std::vector<mcs::Vec2> pts = mcs::materializeDeployment(spec.deployment, deployRng);
  if (pts.empty()) throw std::runtime_error("deployment produced no nodes");
  const mcs::SinrBounds bounds = spec.boundsWidth > 0.0
                                     ? mcs::SinrBounds::around(spec.sinr, spec.boundsWidth)
                                     : mcs::SinrBounds::exact(spec.sinr);
  return std::make_unique<mcs::Network>(std::move(pts), spec.sinr, mcs::Tuning{}, &bounds);
}

/// Step three: the Simulator, with dynamics attached when the spec moves.
std::unique_ptr<mcs::Simulator> makeSimulator(const mcs::ScenarioSpec& spec,
                                              const mcs::Network& net, std::uint64_t seed) {
  auto sim = std::make_unique<mcs::Simulator>(net, spec.channels, seed);
  if (spec.topology.dynamic()) sim->attachDynamics(spec.topology);
  return sim;
}

/// Builds every input (deploy, Network, Simulator per seed).  The
/// Networks are kept for the measured phase.
void setupInputs(const mcs::ScenarioSpec& spec, const std::vector<std::uint64_t>& seeds,
                 std::vector<std::unique_ptr<mcs::Network>>& nets) {
  nets.clear();
  for (const std::uint64_t seed : seeds) {
    nets.push_back(makeNetwork(spec, seed));
    // Built and dropped: each measured run gets a fresh Simulator, but its
    // construction cost belongs to set-up.
    const auto sim = makeSimulator(spec, *nets.back(), seed);
  }
}

/// Steps four and five of the per-seed contract on a fresh Simulator;
/// wallSec covers the protocol run only.
mcs::SeedResult runSeed(const mcs::ScenarioSpec& spec, const mcs::Network& net,
                        std::uint64_t seed) {
  mcs::SeedResult res;
  res.seed = seed;
  res.deployedN = net.size();
  try {
    const auto sim = makeSimulator(spec, net, seed);
    mcs::Rng valueRng = mcs::Rng(seed).fork(mcs::kValueStream);
    const double t0 = nowSec();
    mcs::ProtocolOutcome out = mcs::protocolDriver(spec.protocol).run(*sim, spec, valueRng);
    res.wallSec = nowSec() - t0;
    res.structureSlots = out.structureSlots;
    res.delivered = out.delivered;
    res.validity = out.validity;
    res.metrics = std::move(out.metrics);
    const mcs::MediumStats& ms = sim->mediumStats();
    res.slots = ms.slots;
    res.transmissions = ms.transmissions;
    res.listens = ms.listens;
    res.decodes = ms.decodes;
    res.decodeRate = ms.decodeRate();
  } catch (const std::exception& e) {
    res.error = e.what();
  }
  return res;
}

std::string seedTag(const Options& opts, std::uint64_t seed) {
  return opts.workload + " seed " + std::to_string(seed);
}

/// A seed succeeds when it finishes, delivers and passes its ground-truth
/// check.
bool seedOk(const mcs::SeedResult& s) {
  return !s.failed() && s.delivered && s.validity == mcs::OutcomeValidity::Valid;
}

/// Counts a seed that did not succeed as failed work, naming it.
void countSeed(const Options& opts, const mcs::SeedResult& s, Result& r) {
  if (seedOk(s)) return;
  r.failedUnit(seedTag(opts, s.seed) + (s.failed() ? " threw: " + s.error
                                        : s.delivered ? " is " + mcs::toString(s.validity)
                                                      : " was not delivered"));
}

/// A repeated seed must reproduce its first run exactly.
void checkRepeat(const Options& opts, const mcs::SeedResult& first,
                 const mcs::SeedResult& again, Result& r) {
  r.check(first.slots == again.slots && first.decodes == again.decodes &&
              first.metrics == again.metrics && seedOk(first) == seedOk(again),
          seedTag(opts, first.seed) + " did not repeat exactly");
}

/// One seed of the traced run, in stages.
struct StagedSeed {
  std::uint64_t slots = 0;
  std::uint64_t decodes = 0;
  double value = 0.0;  ///< agg_value, or ruling_set_size for the ruling set.
  bool ok = false;
  mcs::StageCosts structure;
  mcs::StageCosts aggregate;
  double setupSec = 0.0;
  double structureSec = 0.0;
  double aggregateSec = 0.0;
  double protocolSec = 0.0;
  double seedSec = 0.0;
};

struct TraceNames {
  mcs::telemetry::TraceNameId seed = mcs::telemetry::traceName("bench.seed");
  mcs::telemetry::TraceNameId setup = mcs::telemetry::traceName("scenario.setup");
  mcs::telemetry::TraceNameId structure = mcs::telemetry::traceName("agg.structure");
  mcs::telemetry::TraceNameId aggregate = mcs::telemetry::traceName("agg.aggregate");
  mcs::telemetry::TraceNameId protocol = mcs::telemetry::traceName("proto.run");
  mcs::telemetry::TraceNameId replay = mcs::telemetry::traceName("mobility.replay");
};

/// Runs one seed with the structure and aggregation stages called one by
/// one (MAX workloads) or through the driver (other kinds), spanning each.
StagedSeed runStaged(const mcs::ScenarioSpec& spec, std::uint64_t seed,
                     std::unique_ptr<mcs::Network>& net, const TraceNames& names) {
  StagedSeed st;
  const double t0 = nowSec();
  const mcs::telemetry::TraceScope seedSpan(names.seed, static_cast<std::int64_t>(seed));
  std::unique_ptr<mcs::Simulator> sim;
  {
    const mcs::telemetry::TraceScope span(names.setup);
    net = makeNetwork(spec, seed);
    sim = makeSimulator(spec, *net, seed);
    st.setupSec = nowSec() - t0;
  }
  mcs::Rng valueRng = mcs::Rng(seed).fork(mcs::kValueStream);
  if (spec.protocol == mcs::ProtocolKind::AggregateMax) {
    // The driver's call sequence (scenario/driver.cpp), stage by stage.
    std::vector<double> values(static_cast<std::size_t>(net->size()));
    for (double& x : values) x = valueRng.uniform();
    const mcs::StructureOptions opts{spec.deltaHat, spec.csaVariant};
    const double s0 = nowSec();
    mcs::AggregationStructure s;
    {
      const mcs::telemetry::TraceScope span(names.structure);
      s = mcs::buildStructure(*sim, opts);
    }
    const double s1 = nowSec();
    mcs::AggregateRun run;
    {
      const mcs::telemetry::TraceScope span(names.aggregate);
      run = mcs::runAggregation(*sim, s, values, mcs::AggKind::Max);
      st.aggregate = run.costs;
      if (sim->dynamic()) {
        // Re-delivery over the drifted structure, as the driver does.
        const mcs::AggregateRun re = mcs::runAggregation(*sim, s, values, mcs::AggKind::Max);
        st.aggregate.uplink += re.costs.uplink;
        st.aggregate.tree += re.costs.tree;
        st.aggregate.inter += re.costs.inter;
        st.aggregate.broadcast += re.costs.broadcast;
      }
    }
    const double s2 = nowSec();
    st.structure = s.costs;
    st.structureSec = s1 - s0;
    st.aggregateSec = s2 - s1;
    st.protocolSec = s2 - s0;
    st.value = run.valueAtNode.empty() ? 0.0 : run.valueAtNode[0];
    st.ok = run.delivered &&
            mcs::aggregateMatches(st.value, mcs::aggregateGroundTruth(values, mcs::AggKind::Max),
                                  mcs::AggKind::Max);
  } else {
    const double s0 = nowSec();
    mcs::ProtocolOutcome out;
    {
      const mcs::telemetry::TraceScope span(names.protocol);
      out = mcs::protocolDriver(spec.protocol).run(*sim, spec, valueRng);
    }
    st.protocolSec = nowSec() - s0;
    st.value = out.metrics.getOr("ruling_set_size", -1.0);
    st.ok = out.delivered && out.validity == mcs::OutcomeValidity::Valid;
  }
  st.slots = sim->slots();
  st.decodes = sim->mediumStats().decodes;
  st.seedSec = nowSec() - t0;
  return st;
}

/// The headline value a staged seed must reproduce.
double headlineValue(const mcs::SeedResult& s) {
  if (const double* v = s.metrics.find("agg_value")) return *v;
  return s.metrics.getOr("ruling_set_size", -1.0);
}

/// Replays the seed's mobility over its slot count with a standalone
/// TopologyDynamics keyed like the Simulator's; returns seconds.
double replayMobility(const mcs::ScenarioSpec& spec, const mcs::Network& net, std::uint64_t seed,
                      std::uint64_t slots, std::uint64_t& graphSamples) {
  const mcs::Rng root(seed);
  mcs::Rng mobilityRng = root.fork(mcs::kMobilityStream);
  mcs::Rng churnRng = root.fork(mcs::kChurnStream);
  mcs::TopologyDynamics dyn(spec.topology, net.positions(), net.rEps(), mobilityRng(),
                            churnRng());
  std::vector<mcs::Vec2> pos(net.positions().begin(), net.positions().end());
  const double t0 = nowSec();
  for (std::uint64_t slot = 0; slot < slots; ++slot) dyn.advance(slot, pos);
  const double sec = nowSec() - t0;
  graphSamples += dyn.stats().graphSamples;
  return sec;
}

void reportStageLayers(const std::vector<StagedSeed>& staged, Result& r) {
  const double k = static_cast<double>(staged.size());
  const auto mean = [&](auto field) {
    double s = 0.0;
    for (const StagedSeed& st : staged) s += static_cast<double>(field(st));
    return s / k;
  };
  r.metric("agg.structure_s", mean([](const StagedSeed& s) { return s.structureSec; }), "s");
  r.metric("agg.structure_slots",
           mean([](const StagedSeed& s) { return s.structure.structureTotal(); }), "slots");
  r.metric("proto.ds_slots", mean([](const StagedSeed& s) { return s.structure.dominatingSet; }),
           "slots");
  r.metric("proto.cluster_coloring_slots",
           mean([](const StagedSeed& s) { return s.structure.clusterColoring; }), "slots");
  r.metric("proto.csa_slots", mean([](const StagedSeed& s) { return s.structure.csa; }),
           "slots");
  r.metric("proto.reporters_slots",
           mean([](const StagedSeed& s) { return s.structure.reporters; }), "slots");
  r.metric("agg.aggregate_s", mean([](const StagedSeed& s) { return s.aggregateSec; }), "s");
  r.metric("agg.aggregate_slots",
           mean([](const StagedSeed& s) { return s.aggregate.aggregationTotal(); }), "slots");
  r.metric("agg.uplink_slots", mean([](const StagedSeed& s) { return s.aggregate.uplink; }),
           "slots");
  r.metric("agg.tree_slots", mean([](const StagedSeed& s) { return s.aggregate.tree; }),
           "slots");
  r.metric("agg.inter_slots", mean([](const StagedSeed& s) { return s.aggregate.inter; }),
           "slots");
  r.metric("agg.broadcast_slots",
           mean([](const StagedSeed& s) { return s.aggregate.broadcast; }), "slots");
}

/// The traced run: untraced reference seeds, then the same seeds staged
/// with telemetry and tracing armed.
void runTraced(const Options& opts, const SimConfig& cfg, Result& r) {
  const mcs::ScenarioSpec& spec = cfg.spec;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < cfg.traceInputs; ++i) seeds.push_back(inputSeed(opts, i));
  std::vector<std::unique_ptr<mcs::Network>> nets;
  setupInputs(spec, seeds, nets);

  std::vector<mcs::SeedResult> refs;
  double untracedSec = 0.0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    refs.push_back(runSeed(spec, *nets[i], seeds[i]));
    countSeed(opts, refs.back(), r);
    untracedSec += refs.back().wallSec;
  }
  r.attempted(refs.size());  // the traced repeats are checks, not new work

  const TraceNames names;
  constexpr std::size_t kRing = std::size_t{1} << 19;
  mcs::telemetry::setEnabled(true);
  mcs::telemetry::setTraceEnabled(true, kRing);
  const mcs::telemetry::MetricsSnapshot before = mcs::telemetry::snapshotMetrics();
  std::vector<StagedSeed> staged;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    staged.push_back(runStaged(spec, seeds[i], nets[i], names));
    const StagedSeed& st = staged.back();
    const mcs::SeedResult& ref = refs[i];
    const std::string tag = seedTag(opts, seeds[i]) + " traced";
    r.check(st.ok == seedOk(ref), tag + ": success differs from the untraced run");
    r.check(st.slots == ref.slots, tag + ": slots " + std::to_string(st.slots) +
                                       " != untraced " + std::to_string(ref.slots));
    r.check(st.decodes == ref.decodes, tag + ": decodes differ from the untraced run");
    r.check(st.value == headlineValue(ref), tag + ": value differs from the untraced run");
    if (spec.protocol == mcs::ProtocolKind::AggregateMax) {
      const std::uint64_t stagedSlots = st.structure.structureTotal() +
                                        st.aggregate.aggregationTotal();
      r.check(stagedSlots == ref.slots, tag + ": stage costs sum to " +
                                            std::to_string(stagedSlots) + " slots, not " +
                                            std::to_string(ref.slots));
    }
  }
  const mcs::telemetry::MetricsSnapshot d = mcs::telemetry::snapshotMetrics().diff(before);

  double replaySec = 0.0;
  std::uint64_t graphSamples = 0;
  if (spec.topology.dynamic()) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const mcs::telemetry::TraceScope span(names.replay, static_cast<std::int64_t>(seeds[i]));
      replaySec += replayMobility(spec, *nets[i], seeds[i], staged[i].slots, graphSamples);
    }
  }

  double slots = 0.0, setupSec = 0.0, protocolSec = 0.0, seedSec = 0.0, structSec = 0.0,
         aggSec = 0.0;
  for (const StagedSeed& st : staged) {
    slots += static_cast<double>(st.slots);
    setupSec += st.setupSec;
    protocolSec += st.protocolSec;
    seedSec += st.seedSec;
    structSec += st.structureSec;
    aggSec += st.aggregateSec;
  }
  const double k = static_cast<double>(staged.size());
  r.metric("scenario.setup_ms_per_seed", 1e3 * setupSec / k, "ms");
  const double resolve = reportMediumLayers(d, slots, r);
  r.metric("sim.self_us_per_slot", 1e6 * std::max(0.0, protocolSec - resolve - replaySec) / slots,
           "us");
  if (spec.topology.dynamic()) {
    r.metric("mobility.advance_us_per_slot", 1e6 * replaySec / slots, "us");
    r.metric("mobility.graph_samples", static_cast<double>(graphSamples) / k, "count");
    r.metric("mobility.share", replaySec / protocolSec, "fraction");
  }
  if (spec.protocol == mcs::ProtocolKind::AggregateMax) {
    reportStageLayers(staged, r);
  } else {
    r.metric("proto.ruling_s", protocolSec / k, "s");
  }
  r.metric("trace.overhead", protocolSec / untracedSec, "ratio");

  mcs::telemetry::setTraceEnabled(false);
  mcs::telemetry::setEnabled(false);
  const std::size_t events = mcs::telemetry::traceEventCount();
  r.check(events < kRing, "trace ring overflowed; spans were lost");
  std::string err;
  const std::string tracePath = opts.workDir + "/trace.json";
  r.check(mcs::telemetry::writeTraceFile(tracePath, err, 1, "perfbench " + opts.workload),
          "trace write: " + err);
  r.setTraceFile(tracePath, events);

  LayerTree tree;
  const int root = tree.add("bench.seed (traced seeds)", seedSec);
  tree.add("scenario.setup", setupSec, root);
  int proto;
  if (spec.protocol == mcs::ProtocolKind::AggregateMax) {
    tree.add("agg.structure", structSec, root);
    tree.add("agg.aggregate", aggSec, root);
    proto = tree.add("protocol (agg.structure + agg.aggregate)", protocolSec);
  } else {
    proto = tree.add("proto.run", protocolSec, root);
  }
  const int res = tree.add("medium.resolve_slot", resolve, proto);
  if (spec.topology.dynamic()) tree.add("mobility.advance (replayed)", replaySec, proto);
  tree.add("medium.populate", timerSec(d, "medium.populate"), res);
  tree.add("medium.build_fields", timerSec(d, "medium.build_fields"), res);
  const int sweep = tree.add("medium.sweep", timerSec(d, "medium.sweep"), res);
  if (spec.sinr.mediumMode == mcs::MediumMode::Hierarchical) {
    tree.add("geom.hier_traverse", timerSec(d, "geom.hier_traverse"), sweep);
  }
  tree.print(stdout, opts.workload + " (" + std::to_string(staged.size()) + " seeds, " +
                         std::to_string(static_cast<std::uint64_t>(slots)) + " slots)");
  r.metric("trace.coverage", tree.minCoverage(), "fraction");
}

}  // namespace

bool runSimWorkload(const Options& opts, Result& r) {
  SimConfig cfg;
  std::string err;
  if (!simConfig(opts, cfg, err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return false;
  }
  if (opts.trace) {
    runTraced(opts, cfg, r);
    return true;
  }
  const mcs::ScenarioSpec& spec = cfg.spec;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < cfg.inputs; ++i) seeds.push_back(inputSeed(opts, i));

  std::vector<std::unique_ptr<mcs::Network>> nets;
  const double setupSec = medianSetupSec(opts, [&] { setupInputs(spec, seeds, nets); });

  // Measured phase: every input once, then round and round while another
  // seed of average length still fits in --seconds.
  std::vector<mcs::SeedResult> firstRuns;
  std::vector<double> seedWalls;
  double measured = 0.0, slots = 0.0;
  for (std::size_t k = 0;
       k < seeds.size() || measured + measured / static_cast<double>(k) <= opts.seconds; ++k) {
    const std::size_t i = k % seeds.size();
    mcs::SeedResult s = runSeed(spec, *nets[i], seeds[i]);
    countSeed(opts, s, r);
    measured += s.wallSec;
    slots += static_cast<double>(s.slots);
    seedWalls.push_back(s.wallSec);
    if (k < seeds.size()) {
      firstRuns.push_back(std::move(s));
    } else {
      checkRepeat(opts, firstRuns[i], s, r);
    }
  }
  double firstPassSlots = 0.0, okInputs = 0.0;
  for (const mcs::SeedResult& s : firstRuns) {
    firstPassSlots += static_cast<double>(s.slots);
    okInputs += seedOk(s) ? 1.0 : 0.0;
  }
  r.attempted(seedWalls.size());

  r.metric("setup_s", setupSec, "s");
  r.metric("slots_per_s", slots / measured, "slots/s");
  r.metric("seed_p50_s", median(seedWalls), "s");
  r.metric("slots_per_seed", firstPassSlots / static_cast<double>(seeds.size()), "slots");
  r.metric("ok_frac", okInputs / static_cast<double>(seeds.size()), "fraction");
  std::printf("%s: %zu inputs, %zu seed runs, %.0f slots in %.3f s of protocol time\n",
              opts.workload.c_str(), seeds.size(), seedWalls.size(), slots, measured);
  return true;
}

}  // namespace perfbench
