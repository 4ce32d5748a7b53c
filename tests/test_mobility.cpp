#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "mobility/mobility.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "telemetry/telemetry.h"
#include "test_support.h"

/// The mobility & churn subsystem: spec plumbing, per-seed determinism,
/// thread-count invariance, model kinematics, churn edge cases, and the
/// drift metrics.
namespace mcs {
namespace {

// ---------------------------------------------------------------- plumbing

TEST(MobilitySpec, KeysParseValidateAndRoundTrip) {
  ScenarioSpec spec;
  std::string err;
  EXPECT_FALSE(spec.topology.dynamic());  // static default attaches nothing

  ASSERT_TRUE(applyScenarioKey(spec, "mobility", "random_waypoint", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "mobility_speed", "0.002", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "mobility_pause", "25", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "churn_departure_rate", "0.001", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "churn_arrival_rate", "0.01", err)) << err;
  ASSERT_TRUE(applyScenarioKey(spec, "mobility_sample_every", "16", err)) << err;
  EXPECT_EQ(spec.topology.mobility.kind, MobilityKind::RandomWaypoint);
  EXPECT_DOUBLE_EQ(spec.topology.mobility.speed, 0.002);
  EXPECT_EQ(spec.topology.mobility.pause, 25);
  EXPECT_TRUE(spec.topology.dynamic());
  EXPECT_EQ(validateScenario(spec), "");

  // Round trip through the canonical serialization.
  ScenarioSpec loaded;
  std::string kv = scenarioToKeyValues(spec);
  std::size_t pos = 0;
  while (pos < kv.size()) {
    const std::size_t eol = kv.find('\n', pos);
    const std::string line = kv.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    ASSERT_NE(eq, std::string::npos);
    const std::string key = line.substr(0, eq - 1);
    const std::string value = line.substr(eq + 2);
    ASSERT_TRUE(applyScenarioKey(loaded, key, value, err)) << line << ": " << err;
  }
  EXPECT_EQ(scenarioToKeyValues(loaded), kv);

  // Rejections.
  EXPECT_FALSE(applyScenarioKey(spec, "mobility", "teleport", err));
  spec.topology.mobility.speed = -1.0;
  EXPECT_NE(validateScenario(spec), "");
  spec.topology.mobility.speed = 0.0;  // moving model without speed
  EXPECT_NE(validateScenario(spec), "");
  spec.topology.mobility.speed = 0.002;
  spec.topology.churn.departureRate = 1.5;  // not a probability
  EXPECT_NE(validateScenario(spec), "");
}

TEST(MobilitySpec, ModelListCoversEveryKind) {
  const auto models = mobilityModelList();
  ASSERT_EQ(models.size(), 4u);
  ScenarioSpec spec;
  std::string err;
  for (const MobilityModelInfo& info : models) {
    EXPECT_TRUE(applyScenarioKey(spec, "mobility", info.name, err)) << info.name;
    EXPECT_FALSE(std::string(info.description).empty());
  }
}

// ----------------------------------------------------------- determinism

ScenarioSpec mobileSpec(MobilityKind kind, double speed = 2e-3) {
  ScenarioSpec spec;
  spec.name = "test_mobile";
  spec.deployment.n = 150;
  spec.deployment.side = 1.0;
  spec.channels = 4;
  spec.protocol = ProtocolKind::AggregateMax;
  spec.seeds = 1;
  spec.topology.mobility.kind = kind;
  spec.topology.mobility.speed = speed;
  spec.topology.sampleEvery = 16;
  return spec;
}

TEST(MobilityDeterminism, PerSeedBitIdenticalTrajectories) {
  for (const MobilityKind kind :
       {MobilityKind::RandomWalk, MobilityKind::RandomWaypoint, MobilityKind::GroupReference}) {
    ScenarioSpec spec = mobileSpec(kind);
    spec.topology.churn.departureRate = 5e-4;
    spec.topology.churn.arrivalRate = 5e-3;
    const SeedResult a = runScenarioSeed(spec, 11);
    const SeedResult b = runScenarioSeed(spec, 11);
    ASSERT_TRUE(a.error.empty()) << toString(kind) << ": " << a.error;
    EXPECT_EQ(a.slots, b.slots) << toString(kind);
    EXPECT_EQ(a.decodes, b.decodes) << toString(kind);
    EXPECT_EQ(a.metrics, b.metrics) << toString(kind);

    const SeedResult c = runScenarioSeed(spec, 12);
    EXPECT_FALSE(a.slots == c.slots && a.decodes == c.decodes) << toString(kind);
  }
}

TEST(MobilityDeterminism, MediumThreadCountInvariance) {
  // The same mobile run on a 1-thread and a 4-thread Medium must produce
  // the identical decode trace and identical trajectories (the dynamics
  // advance is counter-based, outside the threaded listener loop).
  const auto run = [](int threads) {
    Network net = test::makeUniformNetwork(120, 1.0, 17);
    Simulator sim(net, 2, 99, threads);
    TopologyParams topo;
    topo.mobility.kind = MobilityKind::RandomWalk;
    topo.mobility.speed = 2e-3;
    topo.churn.departureRate = 1e-3;
    topo.churn.arrivalRate = 1e-2;
    sim.attachDynamics(topo);
    std::uint64_t decodes = 0;
    for (int t = 0; t < 120; ++t) {
      sim.step(
          [&](NodeId v) {
            return sim.rng(v).bernoulli(0.2)
                       ? Intent::transmit(static_cast<ChannelId>(v % 2), {})
                       : Intent::listen(static_cast<ChannelId>(v % 2));
          },
          [&](NodeId, const Reception& r) { decodes += r.received; });
    }
    std::vector<Vec2> pos(sim.positions().begin(), sim.positions().end());
    return std::pair(decodes, pos);
  };
  const auto [d1, p1] = run(1);
  const auto [d4, p4] = run(4);
  EXPECT_EQ(d1, d4);
  EXPECT_EQ(p1, p4);
}

TEST(MobilityDeterminism, DynamicNearFarIsSeedAndThreadDeterministic) {
  ScenarioSpec spec = mobileSpec(MobilityKind::RandomWalk);
  spec.deployment.n = 250;
  spec.deployment.side = 0.8;
  spec.sinr.mediumMode = MediumMode::NearFar;
  const SeedResult a = runScenarioSeed(spec, 21);
  const SeedResult b = runScenarioSeed(spec, 21);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_TRUE(a.delivered);
}

TEST(MobilityDeterminism, DynamicHierIsSeedAndThreadDeterministic) {
  // The hierarchical far-field shares the dynamic grid maintenance path
  // with NearFar; its pyramid rebuild and fixed-order traversal must keep
  // mobile runs reproducible run-to-run just like the flat modes.
  ScenarioSpec spec = mobileSpec(MobilityKind::RandomWalk);
  spec.deployment.n = 250;
  spec.deployment.side = 0.8;
  spec.sinr.mediumMode = MediumMode::Hierarchical;
  const SeedResult a = runScenarioSeed(spec, 21);
  const SeedResult b = runScenarioSeed(spec, 21);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_TRUE(a.delivered);
}

TEST(MobilityDeterminism, AttachingDynamicsLeavesProtocolStreamsUntouched) {
  // The dynamics keys are root forks, not draws: a node's protocol RNG
  // sequence must be identical with and without dynamics attached.
  Network net = test::makeUniformNetwork(30, 1.0, 5);
  Simulator plain(net, 2, 7);
  Simulator mobile(net, 2, 7);
  TopologyParams topo;
  topo.mobility.kind = MobilityKind::RandomWalk;
  topo.mobility.speed = 1e-3;
  mobile.attachDynamics(topo);
  for (NodeId v = 0; v < net.size(); ++v) {
    EXPECT_EQ(plain.rng(v)(), mobile.rng(v)());
  }
}

// ------------------------------------------------------------- kinematics

TEST(MobilityKinematics, WalkAndWaypointRespectSpeedAndBox) {
  for (const MobilityKind kind : {MobilityKind::RandomWalk, MobilityKind::RandomWaypoint}) {
    Network net = test::makeUniformNetwork(80, 1.0, 23);
    double loX = 1e30, loY = 1e30, hiX = -1e30, hiY = -1e30;
    for (const Vec2& p : net.positions()) {
      loX = std::min(loX, p.x);
      loY = std::min(loY, p.y);
      hiX = std::max(hiX, p.x);
      hiY = std::max(hiY, p.y);
    }
    Simulator sim(net, 1, 3);
    TopologyParams topo;
    topo.mobility.kind = kind;
    topo.mobility.speed = 5e-3;
    sim.attachDynamics(topo);
    std::vector<Vec2> prev(net.positions().begin(), net.positions().end());
    for (int t = 0; t < 200; ++t) {
      sim.step([](NodeId) { return Intent::idle(); }, [](NodeId, const Reception&) {});
      const std::span<const Vec2> cur = sim.positions();
      for (std::size_t v = 0; v < prev.size(); ++v) {
        // Per-slot displacement is bounded by the speed (reflection can
        // only shorten the straight-line distance).
        EXPECT_LE(dist(prev[v], cur[v]), topo.mobility.speed + 1e-12);
        EXPECT_GE(cur[v].x, loX - 1e-12);
        EXPECT_LE(cur[v].x, hiX + 1e-12);
        EXPECT_GE(cur[v].y, loY - 1e-12);
        EXPECT_LE(cur[v].y, hiY + 1e-12);
      }
      prev.assign(cur.begin(), cur.end());
    }
    // And the network actually moved.
    double moved = 0.0;
    for (std::size_t v = 0; v < prev.size(); ++v) moved += dist(prev[v], net.position(static_cast<NodeId>(v)));
    EXPECT_GT(moved, 0.0);
  }
}

TEST(MobilityKinematics, GroupMembersStayTethered) {
  Network net = test::makeUniformNetwork(90, 1.0, 31);
  Simulator sim(net, 1, 3);
  TopologyParams topo;
  topo.mobility.kind = MobilityKind::GroupReference;
  topo.mobility.speed = 4e-3;
  topo.mobility.groups = 5;
  topo.mobility.groupRadius = 0.2;
  sim.attachDynamics(topo);
  // The tether is soft (bounded pull rate), so initially-far members take
  // ~|offset| / (speed/2) slots to reel in; 700 covers the whole box.
  // Along the way no member may teleport: reference motion + member step
  // + tether pull bound per-slot displacement by 2 * speed.
  std::vector<Vec2> prev(net.positions().begin(), net.positions().end());
  for (int t = 0; t < 700; ++t) {
    sim.step([](NodeId) { return Intent::idle(); }, [](NodeId, const Reception&) {});
    const std::span<const Vec2> now = sim.positions();
    for (std::size_t v = 0; v < prev.size(); ++v) {
      ASSERT_LE(dist(prev[v], now[v]), 2.0 * topo.mobility.speed + 1e-12)
          << "slot " << t << " node " << v;
    }
    prev.assign(now.begin(), now.end());
  }
  // After enough slots every member has been pulled to within the tether
  // of its group's reference point; group spread is therefore bounded.
  const std::span<const Vec2> cur = sim.positions();
  for (int g = 0; g < topo.mobility.groups; ++g) {
    Vec2 centroid{};
    int members = 0;
    for (int v = g; v < net.size(); v += topo.mobility.groups) {
      centroid = centroid + cur[static_cast<std::size_t>(v)];
      ++members;
    }
    centroid = centroid * (1.0 / members);
    for (int v = g; v < net.size(); v += topo.mobility.groups) {
      // Steady state: within the tether plus one member step of slack
      // (the soft pull catches an overshoot on the next slot).
      EXPECT_LE(dist(cur[static_cast<std::size_t>(v)], centroid),
                2.0 * topo.mobility.groupRadius + topo.mobility.speed)
          << "group " << g << " node " << v;
    }
  }
}

// ------------------------------------------------------------------ churn

TEST(Churn, AllNodesDeadIsSafeAndRevivable) {
  Network net = test::makeUniformNetwork(40, 1.0, 13);
  Simulator sim(net, 1, 3);
  TopologyParams topo;
  topo.churn.departureRate = 1.0;  // everyone departs in slot 0
  sim.attachDynamics(topo);
  int intentCalls = 0;
  sim.step([&](NodeId) { ++intentCalls; return Intent::listen(0); },
           [](NodeId, const Reception&) {});
  EXPECT_EQ(intentCalls, 0);  // dead nodes get no protocol callbacks
  EXPECT_EQ(sim.aliveCount(), 0);
  EXPECT_EQ(sim.mediumStats().listens, 0u);
  EXPECT_FALSE(sim.alive(0));  // the sink departs too — and nothing throws

  // Certain arrival revives the whole network on the next slot.
  Simulator sim2(net, 1, 3);
  TopologyParams revive;
  revive.churn.departureRate = 1.0;
  revive.churn.arrivalRate = 1.0;
  sim2.attachDynamics(revive);
  sim2.step([](NodeId) { return Intent::listen(0); }, [](NodeId, const Reception&) {});
  EXPECT_EQ(sim2.aliveCount(), 0);
  sim2.step([](NodeId) { return Intent::listen(0); }, [](NodeId, const Reception&) {});
  EXPECT_EQ(sim2.aliveCount(), net.size());
  ASSERT_NE(sim2.dynamics(), nullptr);
  EXPECT_EQ(sim2.dynamics()->stats().departures, static_cast<std::uint64_t>(net.size()));
  EXPECT_EQ(sim2.dynamics()->stats().arrivals, static_cast<std::uint64_t>(net.size()));
}

TEST(Churn, SinkDepartureFailsSoftlyThroughTheRunner) {
  // A dead-on-arrival network (certain departure, no arrivals — the sink
  // included) must come back as a normal SeedResult, never a crash or a
  // hang.  Frozen protocol state may still self-elect dominators, so
  // `delivered` is not asserted; zero radio activity and zero survivors
  // are.
  ScenarioSpec spec;
  spec.deployment.n = 60;
  spec.deployment.side = 1.0;
  spec.channels = 2;
  spec.protocol = ProtocolKind::Structure;
  spec.topology.churn.departureRate = 1.0;
  const SeedResult r = runScenarioSeed(spec, 3);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.metricOr("alive_final", -1.0), 0.0);
  EXPECT_EQ(r.listens, 0u);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(Churn, ChainSamplerIsChurnGated) {
  // Dynamic chain runs sample through the scenario Simulator, so churn
  // actually gates the senders: the sampled slots advance the dynamics
  // and the drift metrics are real (static chain runs keep sampling on a
  // private Simulator, slots = 0, bit-identical to the pre-mobility
  // driver).
  ScenarioSpec spec;
  ASSERT_TRUE(ScenarioRegistry::find("mobile_chain", spec));
  spec.seeds = 1;
  const SeedResult r = runScenarioSeed(spec, spec.seed0);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.slots, static_cast<std::uint64_t>(spec.chainTrials));
  EXPECT_GT(r.metricOr("churn_departures") + r.metricOr("churn_arrivals"), 0.0);

  ScenarioSpec still = spec;
  still.topology = TopologyParams{};
  const SeedResult s = runScenarioSeed(still, spec.seed0);
  ASSERT_TRUE(s.error.empty()) << s.error;
  EXPECT_EQ(s.slots, 0u);
}

// ----------------------------------------------------------- drift metrics

TEST(DriftMetrics, ReportedAndSane) {
  ScenarioSpec spec = mobileSpec(MobilityKind::RandomWalk, 4e-3);
  const SeedResult r = runScenarioSeed(spec, 9);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_GT(r.metricOr("mean_displacement"), 0.0);
  EXPECT_GT(r.metricOr("edge_churn_per_slot"), 0.0);
  const double survival = r.metricOr("edge_survival", -1.0);
  EXPECT_GE(survival, 0.0);
  EXPECT_LT(survival, 1.0);  // at this speed some initial edges must die
  EXPECT_EQ(r.metricOr("alive_final"), spec.deployment.n);  // no churn configured
  EXPECT_NE(r.metrics.find("redelivered"), nullptr);  // aggregation adds re-delivery

  // Static runs carry none of this.
  ScenarioSpec still = mobileSpec(MobilityKind::Static, 0.0);
  still.topology.mobility.speed = 0.0;
  const SeedResult s = runScenarioSeed(still, 9);
  EXPECT_EQ(s.metrics.find("edge_survival"), nullptr);
  EXPECT_EQ(s.metrics.find("redelivered"), nullptr);
}

// ------------------------------------------------------ drift-metric golden

using test::bits;
using test::fnv1a;

/// One pinned drift run: every TopologyStats field, the bits of
/// meanDisplacement and an FNV-1a hash of the final positions.
struct DriftGolden {
  const char* preset;
  int sampleEvery;
  std::uint64_t seed;
  std::uint64_t graphSamples, edgesAdded, edgesRemoved;
  std::size_t initialEdges, finalEdges, survivingInitialEdges;
  std::uint64_t meanDisplacementBits, departures, arrivals, positionHash;

  [[nodiscard]] auto fields() const {
    return std::tie(sampleEvery, seed, graphSamples, edgesAdded, edgesRemoved, initialEdges,
                    finalEdges, survivingInitialEdges, meanDisplacementBits, departures, arrivals,
                    positionHash);
  }
  bool operator==(const DriftGolden& o) const {
    return std::string_view(preset) == o.preset && fields() == o.fields();
  }
};

std::ostream& operator<<(std::ostream& os, const DriftGolden& g) {
  return os << "{\"" << g.preset << "\", " << g.sampleEvery << ", " << g.seed << ", "
            << g.graphSamples << ", " << g.edgesAdded << ", " << g.edgesRemoved << ", "
            << g.initialEdges << ", " << g.finalEdges << ", " << g.survivingInitialEdges
            << ", 0x" << std::hex << g.meanDisplacementBits << std::dec << "ull, "
            << g.departures << ", " << g.arrivals << ", 0x" << std::hex << g.positionHash
            << std::dec << "ull},";
}

/// Slots each golden run advances: long enough for the waypoint and
/// group presets to move nodes by several skin widths.
constexpr std::uint64_t kGoldenSlots = 1024;

/// Replays a preset's topology dynamics standalone, keyed exactly like
/// the Simulator's (root forks kMobilityStream / kChurnStream), with the
/// preset's deployment for `seed` and the given sampling period.
DriftGolden runDriftGolden(const char* preset, int sampleEvery, std::uint64_t seed) {
  ScenarioSpec spec;
  EXPECT_TRUE(ScenarioRegistry::find(preset, spec)) << preset;
  spec.topology.sampleEvery = sampleEvery;
  Rng deployRng(seed);
  Network net(materializeDeployment(spec.deployment, deployRng), spec.sinr);
  const Rng root(seed);
  Rng mobilityRng = root.fork(kMobilityStream);
  Rng churnRng = root.fork(kChurnStream);
  TopologyDynamics dyn(spec.topology, net.positions(), net.rEps(), mobilityRng(), churnRng());
  std::vector<Vec2> pos(net.positions().begin(), net.positions().end());
  for (std::uint64_t slot = 0; slot < kGoldenSlots; ++slot) dyn.advance(slot, pos);
  dyn.finalize(pos);
  const TopologyStats& s = dyn.stats();
  std::uint64_t h = 1469598103934665603ull;
  for (const Vec2& p : pos) h = fnv1a(fnv1a(h, bits(p.x)), bits(p.y));
  return {preset,         sampleEvery,    seed,           s.graphSamples,
          s.edgesAdded,   s.edgesRemoved, s.initialEdges, s.finalEdges,
          s.survivingInitialEdges, bits(s.meanDisplacement), s.departures, s.arrivals, h};
}

// Captured from the full per-sample re-sweep sampler (one GridIndex ball
// query per node, sorted edge lists diffed every sample).  Like the
// Medium goldens these never change: the sampler is observational, so
// any implementation must reproduce them bit for bit.
const DriftGolden kDriftGolden[] = {
  {"mobile_agg_max", 1, 1, 1026, 15946, 15908, 23723, 23761, 23266, 0x3f8be7ef4800597bull, 0, 0, 0x1d480ae456410edfull},
  {"mobile_agg_max", 1, 2, 1026, 16024, 16077, 23664, 23611, 23146, 0x3f8cb222fe1a7d48ull, 0, 0, 0xbdb0baa696ac3c24ull},
  {"mobile_agg_max", 1, 3, 1026, 16398, 16437, 23149, 23110, 22647, 0x3f8d6d29c3d7b8b6ull, 0, 0, 0x7fb2267e1f1b0810ull},
  {"mobile_agg_max", 7, 1, 148, 5941, 5903, 23723, 23761, 23266, 0x3f8be7ef4800597bull, 0, 0, 0x1d480ae456410edfull},
  {"mobile_agg_max", 7, 2, 148, 5995, 6048, 23664, 23611, 23146, 0x3f8cb222fe1a7d48ull, 0, 0, 0xbdb0baa696ac3c24ull},
  {"mobile_agg_max", 7, 3, 148, 6083, 6122, 23149, 23110, 22647, 0x3f8d6d29c3d7b8b6ull, 0, 0, 0x7fb2267e1f1b0810ull},
  {"mobile_agg_max", 32, 1, 34, 2736, 2698, 23723, 23761, 23266, 0x3f8be7ef4800597bull, 0, 0, 0x1d480ae456410edfull},
  {"mobile_agg_max", 32, 2, 34, 2759, 2812, 23664, 23611, 23146, 0x3f8cb222fe1a7d48ull, 0, 0, 0xbdb0baa696ac3c24ull},
  {"mobile_agg_max", 32, 3, 34, 2821, 2860, 23149, 23110, 22647, 0x3f8d6d29c3d7b8b6ull, 0, 0, 0x7fb2267e1f1b0810ull},
  {"mobile_agg_sum", 1, 1, 1026, 3478, 3761, 23127, 22844, 22800, 0x3f569a3ab42e213cull, 19, 16, 0x3d3d9a42caa0118bull},
  {"mobile_agg_sum", 1, 2, 1026, 4512, 4506, 23094, 23100, 23060, 0x3f5738302865d6f7ull, 23, 23, 0x919105ebd4c0b96ull},
  {"mobile_agg_sum", 1, 3, 1026, 2379, 2514, 23080, 22945, 22907, 0x3f57aaa98d0ab868ull, 10, 9, 0xeddfce431d9a46ull},
  {"mobile_agg_sum", 7, 1, 148, 2623, 2906, 23127, 22844, 22800, 0x3f569a3ab42e213cull, 19, 16, 0x3d3d9a42caa0118bull},
  {"mobile_agg_sum", 7, 2, 148, 3182, 3176, 23094, 23100, 23060, 0x3f5738302865d6f7ull, 23, 23, 0x919105ebd4c0b96ull},
  {"mobile_agg_sum", 7, 3, 148, 1248, 1383, 23080, 22945, 22907, 0x3f57aaa98d0ab868ull, 10, 9, 0xeddfce431d9a46ull},
  {"mobile_agg_sum", 32, 1, 34, 1702, 1985, 23127, 22844, 22800, 0x3f569a3ab42e213cull, 19, 16, 0x3d3d9a42caa0118bull},
  {"mobile_agg_sum", 32, 2, 34, 2145, 2139, 23094, 23100, 23060, 0x3f5738302865d6f7ull, 23, 23, 0x919105ebd4c0b96ull},
  {"mobile_agg_sum", 32, 3, 34, 692, 827, 23080, 22945, 22907, 0x3f57aaa98d0ab868ull, 10, 9, 0xeddfce431d9a46ull},
  {"mobile_aloha", 1, 1, 1026, 14073, 14077, 26872, 26868, 26448, 0x3f8c26d719322980ull, 0, 0, 0x7aead49465b45020ull},
  {"mobile_aloha", 1, 2, 1026, 15326, 15281, 26389, 26434, 25941, 0x3f8cd19be812caecull, 0, 0, 0x1a125baaf73c4542ull},
  {"mobile_aloha", 1, 3, 1026, 14131, 14089, 26386, 26428, 25950, 0x3f8dc5e0c1ce4c2cull, 0, 0, 0xd99fa0cdd2272f0ull},
  {"mobile_aloha", 7, 1, 148, 5339, 5343, 26872, 26868, 26448, 0x3f8c26d719322980ull, 0, 0, 0x7aead49465b45020ull},
  {"mobile_aloha", 7, 2, 148, 5732, 5687, 26389, 26434, 25941, 0x3f8cd19be812caecull, 0, 0, 0x1a125baaf73c4542ull},
  {"mobile_aloha", 7, 3, 148, 5314, 5272, 26386, 26428, 25950, 0x3f8dc5e0c1ce4c2cull, 0, 0, 0xd99fa0cdd2272f0ull},
  {"mobile_aloha", 32, 1, 34, 2453, 2457, 26872, 26868, 26448, 0x3f8c26d719322980ull, 0, 0, 0x7aead49465b45020ull},
  {"mobile_aloha", 32, 2, 34, 2731, 2686, 26389, 26434, 25941, 0x3f8cd19be812caecull, 0, 0, 0x1a125baaf73c4542ull},
  {"mobile_aloha", 32, 3, 34, 2505, 2463, 26386, 26428, 25950, 0x3f8dc5e0c1ce4c2cull, 0, 0, 0xd99fa0cdd2272f0ull},
  {"mobile_structure", 1, 1, 1026, 10095, 10118, 21039, 21016, 20689, 0x3f8b9788f8465ad2ull, 0, 0, 0x633fcaaf74569d08ull},
  {"mobile_structure", 1, 2, 1026, 5319, 5224, 22260, 22355, 22143, 0x3f8de34e139aa272ull, 0, 0, 0x767f4f0f63cb7668ull},
  {"mobile_structure", 1, 3, 1026, 8221, 8258, 20655, 20618, 20380, 0x3f8ce8cfaebb3505ull, 0, 0, 0x37c05dd1b80dbd1eull},
  {"mobile_structure", 7, 1, 148, 3710, 3733, 21039, 21016, 20689, 0x3f8b9788f8465ad2ull, 0, 0, 0x633fcaaf74569d08ull},
  {"mobile_structure", 7, 2, 148, 1985, 1890, 22260, 22355, 22143, 0x3f8de34e139aa272ull, 0, 0, 0x767f4f0f63cb7668ull},
  {"mobile_structure", 7, 3, 148, 3081, 3118, 20655, 20618, 20380, 0x3f8ce8cfaebb3505ull, 0, 0, 0x37c05dd1b80dbd1eull},
  {"mobile_structure", 32, 1, 34, 1783, 1806, 21039, 21016, 20689, 0x3f8b9788f8465ad2ull, 0, 0, 0x633fcaaf74569d08ull},
  {"mobile_structure", 32, 2, 34, 943, 848, 22260, 22355, 22143, 0x3f8de34e139aa272ull, 0, 0, 0x767f4f0f63cb7668ull},
  {"mobile_structure", 32, 3, 34, 1409, 1446, 20655, 20618, 20380, 0x3f8ce8cfaebb3505ull, 0, 0, 0x37c05dd1b80dbd1eull},
  {"mobile_coloring", 1, 1, 1026, 18605, 18601, 30502, 30506, 29993, 0x3f8c157ca917c36eull, 0, 0, 0xeca982f0b71aadd1ull},
  {"mobile_coloring", 1, 2, 1026, 17455, 17408, 30342, 30389, 29834, 0x3f8ce835e88a9b8full, 0, 0, 0x9e91e0dd07214d34ull},
  {"mobile_coloring", 1, 3, 1026, 18105, 18040, 30371, 30436, 29840, 0x3f8d62a7f931d620ull, 0, 0, 0x5c35dda0a5060102ull},
  {"mobile_coloring", 7, 1, 148, 6945, 6941, 30502, 30506, 29993, 0x3f8c157ca917c36eull, 0, 0, 0xeca982f0b71aadd1ull},
  {"mobile_coloring", 7, 2, 148, 6596, 6549, 30342, 30389, 29834, 0x3f8ce835e88a9b8full, 0, 0, 0x9e91e0dd07214d34ull},
  {"mobile_coloring", 7, 3, 148, 6734, 6669, 30371, 30436, 29840, 0x3f8d62a7f931d620ull, 0, 0, 0x5c35dda0a5060102ull},
  {"mobile_coloring", 32, 1, 34, 3239, 3235, 30502, 30506, 29993, 0x3f8c157ca917c36eull, 0, 0, 0xeca982f0b71aadd1ull},
  {"mobile_coloring", 32, 2, 34, 3083, 3036, 30342, 30389, 29834, 0x3f8ce835e88a9b8full, 0, 0, 0x9e91e0dd07214d34ull},
  {"mobile_coloring", 32, 3, 34, 3192, 3127, 30371, 30436, 29840, 0x3f8d62a7f931d620ull, 0, 0, 0x5c35dda0a5060102ull},
  {"mobile_palette", 1, 1, 1026, 12036, 12063, 18881, 18854, 18507, 0x3f8c0804bf16b64full, 0, 0, 0x3cef239cdab94b43ull},
  {"mobile_palette", 1, 2, 1026, 5943, 5850, 18418, 18511, 18273, 0x3f8e613fca829db4ull, 0, 0, 0xf75737ca7a2f34dull},
  {"mobile_palette", 1, 3, 1026, 7444, 7476, 17658, 17626, 17420, 0x3f8cebc39d48a925ull, 0, 0, 0x93f24f5a6a83d131ull},
  {"mobile_palette", 7, 1, 148, 4527, 4554, 18881, 18854, 18507, 0x3f8c0804bf16b64full, 0, 0, 0x3cef239cdab94b43ull},
  {"mobile_palette", 7, 2, 148, 2247, 2154, 18418, 18511, 18273, 0x3f8e613fca829db4ull, 0, 0, 0xf75737ca7a2f34dull},
  {"mobile_palette", 7, 3, 148, 2764, 2796, 17658, 17626, 17420, 0x3f8cebc39d48a925ull, 0, 0, 0x93f24f5a6a83d131ull},
  {"mobile_palette", 32, 1, 34, 2069, 2096, 18881, 18854, 18507, 0x3f8c0804bf16b64full, 0, 0, 0x3cef239cdab94b43ull},
  {"mobile_palette", 32, 2, 34, 1063, 970, 18418, 18511, 18273, 0x3f8e613fca829db4ull, 0, 0, 0xf75737ca7a2f34dull},
  {"mobile_palette", 32, 3, 34, 1274, 1306, 17658, 17626, 17420, 0x3f8cebc39d48a925ull, 0, 0, 0x93f24f5a6a83d131ull},
  {"mobile_csa", 1, 1, 1026, 26693, 28641, 30502, 28554, 28083, 0x3f8b9186d3c102b8ull, 62, 51, 0x4da81711a5946673ull},
  {"mobile_csa", 1, 2, 1026, 27134, 29153, 30342, 28323, 27810, 0x3f8c61c61af5e19eull, 78, 65, 0x88884e0394046097ull},
  {"mobile_csa", 1, 3, 1026, 23697, 26776, 30371, 27292, 26746, 0x3f8d274f745380d3ull, 55, 37, 0xcf8e7325b3d38a6full},
  {"mobile_csa", 7, 1, 148, 15621, 17569, 30502, 28554, 28083, 0x3f8b9186d3c102b8ull, 62, 51, 0x4da81711a5946673ull},
  {"mobile_csa", 7, 2, 148, 16705, 18724, 30342, 28323, 27810, 0x3f8c61c61af5e19eull, 78, 65, 0x88884e0394046097ull},
  {"mobile_csa", 7, 3, 148, 12661, 15740, 30371, 27292, 26746, 0x3f8d274f745380d3ull, 55, 37, 0xcf8e7325b3d38a6full},
  {"mobile_csa", 32, 1, 34, 11103, 13051, 30502, 28554, 28083, 0x3f8b9186d3c102b8ull, 62, 51, 0x4da81711a5946673ull},
  {"mobile_csa", 32, 2, 34, 11984, 14003, 30342, 28323, 27810, 0x3f8c61c61af5e19eull, 78, 65, 0x88884e0394046097ull},
  {"mobile_csa", 32, 3, 34, 8479, 11558, 30371, 27292, 26746, 0x3f8d274f745380d3ull, 55, 37, 0xcf8e7325b3d38a6full},
  {"mobile_ruling", 1, 1, 1026, 48187, 40160, 23723, 31750, 9582, 0x3fe7c595a31e01fdull, 0, 0, 0xfdd93b43387352fcull},
  {"mobile_ruling", 1, 2, 1026, 48652, 40734, 23664, 31582, 9534, 0x3fe7c58b42b164eeull, 0, 0, 0xc16e036bd1b0cae9ull},
  {"mobile_ruling", 1, 3, 1026, 49687, 39227, 23149, 33609, 9938, 0x3fe7465943e2f68eull, 0, 0, 0x554b99aeb9315e87ull},
  {"mobile_ruling", 7, 1, 148, 48151, 40124, 23723, 31750, 9582, 0x3fe7c595a31e01fdull, 0, 0, 0xfdd93b43387352fcull},
  {"mobile_ruling", 7, 2, 148, 48616, 40698, 23664, 31582, 9534, 0x3fe7c58b42b164eeull, 0, 0, 0xc16e036bd1b0cae9ull},
  {"mobile_ruling", 7, 3, 148, 49643, 39183, 23149, 33609, 9938, 0x3fe7465943e2f68eull, 0, 0, 0x554b99aeb9315e87ull},
  {"mobile_ruling", 32, 1, 34, 47983, 39956, 23723, 31750, 9582, 0x3fe7c595a31e01fdull, 0, 0, 0xfdd93b43387352fcull},
  {"mobile_ruling", 32, 2, 34, 48425, 40507, 23664, 31582, 9534, 0x3fe7c58b42b164eeull, 0, 0, 0xc16e036bd1b0cae9ull},
  {"mobile_ruling", 32, 3, 34, 49444, 38984, 23149, 33609, 9938, 0x3fe7465943e2f68eull, 0, 0, 0x554b99aeb9315e87ull},
  {"mobile_dominators", 1, 1, 1026, 36592, 37998, 23723, 22317, 21440, 0x3f9b41438825d8d2ull, 69, 57, 0xfad9d09b3de7349aull},
  {"mobile_dominators", 1, 2, 1026, 38323, 40037, 23664, 21950, 21101, 0x3f9c40f89b9439daull, 92, 77, 0x8a8b017e3482bb55ull},
  {"mobile_dominators", 1, 3, 1026, 35775, 38089, 23149, 20835, 19953, 0x3f9cff432fa0f2f4ull, 63, 43, 0x22ede74f14ded0f0ull},
  {"mobile_dominators", 7, 1, 148, 17909, 19315, 23723, 22317, 21440, 0x3f9b41438825d8d2ull, 69, 57, 0xfad9d09b3de7349aull},
  {"mobile_dominators", 7, 2, 148, 19639, 21353, 23664, 21950, 21101, 0x3f9c40f89b9439daull, 92, 77, 0x8a8b017e3482bb55ull},
  {"mobile_dominators", 7, 3, 148, 16354, 18668, 23149, 20835, 19953, 0x3f9cff432fa0f2f4ull, 63, 43, 0x22ede74f14ded0f0ull},
  {"mobile_dominators", 32, 1, 34, 11319, 12725, 23723, 22317, 21440, 0x3f9b41438825d8d2ull, 69, 57, 0xfad9d09b3de7349aull},
  {"mobile_dominators", 32, 2, 34, 12678, 14392, 23664, 21950, 21101, 0x3f9c40f89b9439daull, 92, 77, 0x8a8b017e3482bb55ull},
  {"mobile_dominators", 32, 3, 34, 9741, 12055, 23149, 20835, 19953, 0x3f9cff432fa0f2f4ull, 63, 43, 0x22ede74f14ded0f0ull},
  {"mobile_chain", 1, 1, 1026, 720, 720, 436, 436, 436, 0x0ull, 30, 30, 0x301634d6da1f40e3ull},
  {"mobile_chain", 1, 2, 1026, 879, 964, 436, 351, 351, 0x0ull, 44, 40, 0x301634d6da1f40e3ull},
  {"mobile_chain", 1, 3, 1026, 778, 862, 436, 352, 352, 0x0ull, 34, 31, 0x301634d6da1f40e3ull},
  {"mobile_chain", 7, 1, 148, 718, 718, 436, 436, 436, 0x0ull, 30, 30, 0x301634d6da1f40e3ull},
  {"mobile_chain", 7, 2, 148, 874, 959, 436, 351, 351, 0x0ull, 44, 40, 0x301634d6da1f40e3ull},
  {"mobile_chain", 7, 3, 148, 776, 860, 436, 352, 352, 0x0ull, 34, 31, 0x301634d6da1f40e3ull},
  {"mobile_chain", 32, 1, 34, 603, 603, 436, 436, 436, 0x0ull, 30, 30, 0x301634d6da1f40e3ull},
  {"mobile_chain", 32, 2, 34, 730, 815, 436, 351, 351, 0x0ull, 44, 40, 0x301634d6da1f40e3ull},
  {"mobile_chain", 32, 3, 34, 560, 644, 436, 352, 352, 0x0ull, 34, 31, 0x301634d6da1f40e3ull},
  {"mobile_nearfar", 1, 1, 1026, 59918, 60007, 119230, 119141, 117388, 0x3f8c36a69d59163cull, 0, 0, 0xcd21b8ecf2ac405full},
  {"mobile_nearfar", 1, 2, 1026, 60544, 60413, 118919, 119050, 117125, 0x3f8c65722abd4c98ull, 0, 0, 0x38e282d04a781d32ull},
  {"mobile_nearfar", 1, 3, 1026, 61314, 61046, 119286, 119554, 117509, 0x3f8cbdf6ae0cf11bull, 0, 0, 0x8a1d9faba491630aull},
  {"mobile_nearfar", 7, 1, 148, 22332, 22421, 119230, 119141, 117388, 0x3f8c36a69d59163cull, 0, 0, 0xcd21b8ecf2ac405full},
  {"mobile_nearfar", 7, 2, 148, 22769, 22638, 118919, 119050, 117125, 0x3f8c65722abd4c98ull, 0, 0, 0x38e282d04a781d32ull},
  {"mobile_nearfar", 7, 3, 148, 23034, 22766, 119286, 119554, 117509, 0x3f8cbdf6ae0cf11bull, 0, 0, 0x8a1d9faba491630aull},
  {"mobile_nearfar", 32, 1, 34, 10366, 10455, 119230, 119141, 117388, 0x3f8c36a69d59163cull, 0, 0, 0xcd21b8ecf2ac405full},
  {"mobile_nearfar", 32, 2, 34, 10580, 10449, 118919, 119050, 117125, 0x3f8c65722abd4c98ull, 0, 0, 0x38e282d04a781d32ull},
  {"mobile_nearfar", 32, 3, 34, 10924, 10656, 119286, 119554, 117509, 0x3f8cbdf6ae0cf11bull, 0, 0, 0x8a1d9faba491630aull},
};

TEST(DriftMetricsGolden, EveryMobilePresetBitIdentical) {
  int checked = 0;
  for (const std::string& name : ScenarioRegistry::names()) {
    if (name.rfind("mobile_", 0) != 0) continue;
    for (const int every : {1, 7, 32}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const DriftGolden got = runDriftGolden(name.c_str(), every, seed);
        const DriftGolden* want = nullptr;
        for (const DriftGolden& g : kDriftGolden) {
          if (name == g.preset && g.sampleEvery == every && g.seed == seed) want = &g;
        }
        if (want == nullptr) {
          ADD_FAILURE() << "no golden row for " << got;
        } else {
          EXPECT_EQ(got, *want);
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, static_cast<int>(std::size(kDriftGolden)));
}

// ------------------------------------------------------------ drift sampler

/// Reference reflection: the fmod formula on every call.
double reflectByFmod(double x, double lo, double hi) {
  if (hi <= lo) return lo;
  const double span = hi - lo;
  double t = std::fmod(x - lo, 2.0 * span);
  if (t < 0.0) t += 2.0 * span;
  return lo + (t <= span ? t : 2.0 * span - t);
}

TEST(DriftSampler, ReflectEqualsTheFmodFormulaBitwise) {
  for (const auto& [lo, hi] : {std::pair{0.0, 1.0}, std::pair{-0.3, 1.7},
                               std::pair{0.125, 0.126}, std::pair{2.0, 2.0}}) {
    const double span = hi - lo;
    std::vector<double> xs = {lo,
                              hi,
                              -0.0,
                              lo + 2.0 * span,
                              std::nextafter(lo + 2.0 * span, lo),
                              std::nextafter(lo, lo - 1.0),
                              lo - 1e-300,
                              lo - 0.25 * span,
                              lo - 3.5 * span,
                              hi + 0.25 * span,
                              hi + 1e9,
                              lo - 1e9,
                              1e300,
                              -1e300};
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) xs.push_back(lo + (rng.uniform() * 8.0 - 4.0) * (span + 1.0));
    for (const double x : xs) {
      EXPECT_EQ(bits(detail::reflect(x, lo, hi)), bits(reflectByFmod(x, lo, hi)))
          << "x=" << x << " lo=" << lo << " hi=" << hi;
    }
  }
}

/// Arms metrics for one test and restores the disarmed default.
struct MetricsArmed {
  MetricsArmed() {
    telemetry::resetMetrics();
    telemetry::setEnabled(true);
  }
  ~MetricsArmed() {
    telemetry::setEnabled(false);
    telemetry::resetMetrics();
  }
};

/// Brute-force O(n^2) edge set at radius r over alive nodes: the
/// definition the candidate-list sampler must reproduce exactly.
std::vector<std::uint64_t> bruteEdges(std::span<const Vec2> pos, const std::vector<char>& alive,
                                      double r) {
  std::vector<std::uint64_t> edges;
  for (std::size_t v = 0; v < pos.size(); ++v) {
    for (std::size_t u = v + 1; u < pos.size(); ++u) {
      if (alive[v] != 0 && alive[u] != 0 && dist2(pos[u], pos[v]) <= r * r) {
        edges.push_back((static_cast<std::uint64_t>(v) << 32) | u);
      }
    }
  }
  return edges;
}

std::size_t countOnlyIn(const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out.size();
}

struct OracleCase {
  const char* name;
  MobilityKind kind;
  double speed;  ///< Per slot, in units of R.
  double departureRate, arrivalRate;
  int sampleEvery;
  /// Static kind only: every slot the test itself places each node at
  /// its initial position plus this many R in a fresh random direction.
  double shove;
  /// Initial: only the slot-zero build.  EverySample: every sample but
  /// the final one, which re-samples unmoved positions.
  enum Rebuilds { Initial, EverySample, Some } rebuilds;
};

TEST(DriftSampler, MatchesBruteForceUnderAdversarialMotion) {
  constexpr double kR = 0.2;
  constexpr double kUnder = detail::kSamplerSlack * (1.0 - 1e-9);
  constexpr double kOver = detail::kSamplerSlack * (1.0 + 1e-9);
  const OracleCase cases[] = {
      {"rebuild every sample", MobilityKind::RandomWalk, 1.5 * detail::kSamplerSlack, 0, 0, 1, 0,
       OracleCase::EverySample},
      {"just inside the slack", MobilityKind::Static, 0, 0, 0, 1, kUnder, OracleCase::Initial},
      {"just past the slack", MobilityKind::Static, 0, 0, 0, 1, kOver, OracleCase::Some},
      {"churn", MobilityKind::RandomWalk, 0.02, 0.05, 0.2, 1, 0, OracleCase::Some},
      {"churn without motion", MobilityKind::Static, 0, 0.1, 0.3, 1, 0, OracleCase::Initial},
      {"box reflections", MobilityKind::RandomWalk, 0.4, 0, 0, 3, 0, OracleCase::EverySample},
      {"waypoints", MobilityKind::RandomWaypoint, 0.03, 0, 0, 2, 0, OracleCase::Some},
      {"groups", MobilityKind::GroupReference, 0.03, 0.02, 0.1, 1, 0, OracleCase::Some},
  };
  for (const OracleCase& c : cases) {
    SCOPED_TRACE(c.name);
    const MetricsArmed armed;
    Rng rng(41);
    const std::vector<Vec2> initial = deployUniformSquare(120, 1.0, rng);
    TopologyParams params;
    params.mobility.kind = c.kind;
    params.mobility.speed = c.speed * kR;
    params.mobility.pause = 3;
    params.churn.departureRate = c.departureRate;
    params.churn.arrivalRate = c.arrivalRate;
    params.sampleEvery = c.sampleEvery;
    TopologyDynamics dyn(params, initial, kR, 0x5eedULL, 0xc4u);

    std::vector<Vec2> pos = initial;
    const std::vector<std::uint64_t> first = bruteEdges(pos, dyn.aliveMask(), kR);
    ASSERT_EQ(dyn.stats().initialEdges, first.size());
    std::vector<std::uint64_t> prev = first;
    constexpr std::uint64_t kSlots = 150;
    for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
      if (c.shove > 0.0) {
        for (std::size_t v = 0; v < pos.size(); ++v) {
          const double theta = 6.283185307179586 * rng.uniform();
          pos[v] = initial[v] + Vec2{std::cos(theta), std::sin(theta)} * (c.shove * kR);
        }
      }
      const TopologyStats before = dyn.stats();
      dyn.advance(slot, pos);
      if ((slot + 1) % static_cast<std::uint64_t>(c.sampleEvery) != 0) continue;
      const std::vector<std::uint64_t> cur = bruteEdges(pos, dyn.aliveMask(), kR);
      ASSERT_EQ(dyn.stats().edgesAdded - before.edgesAdded, countOnlyIn(cur, prev))
          << "slot " << slot;
      ASSERT_EQ(dyn.stats().edgesRemoved - before.edgesRemoved, countOnlyIn(prev, cur))
          << "slot " << slot;
      prev = cur;
    }
    dyn.finalize(pos);
    const TopologyStats& s = dyn.stats();
    EXPECT_EQ(s.finalEdges, prev.size());
    EXPECT_EQ(s.survivingInitialEdges, first.size() - countOnlyIn(first, prev));
    EXPECT_GT(s.edgesAdded + s.edgesRemoved, 0u);  // the graph did change

    const telemetry::MetricsSnapshot m = telemetry::snapshotMetrics();
    EXPECT_EQ(m.counterOr("mobility.graph_samples"), s.graphSamples);
    const std::uint64_t rebuilds = m.counterOr("mobility.sampler_rebuilds");
    switch (c.rebuilds) {
      case OracleCase::Initial:
        EXPECT_EQ(rebuilds, 1u);
        break;
      case OracleCase::EverySample:
        EXPECT_EQ(rebuilds, s.graphSamples - 1);
        break;
      case OracleCase::Some:
        EXPECT_GT(rebuilds, 1u);
        EXPECT_LT(rebuilds, s.graphSamples);
        break;
    }
  }
}

TEST(DriftSampler, RepeatFinalizeLeavesStatsUnchanged) {
  Network net = test::makeUniformNetwork(100, 1.0, 19);
  Simulator sim(net, 1, 5);
  TopologyParams topo;
  topo.mobility.kind = MobilityKind::RandomWalk;
  topo.mobility.speed = 3e-3;
  topo.churn.departureRate = 1e-2;
  topo.churn.arrivalRate = 5e-2;
  sim.attachDynamics(topo);
  for (int t = 0; t < 50; ++t) {
    sim.step([](NodeId) { return Intent::idle(); }, [](NodeId, const Reception&) {});
  }
  const auto fields = [](const TopologyStats& s) {
    return std::tuple(s.departures, s.arrivals, s.graphSamples, s.edgesAdded, s.edgesRemoved,
                      s.initialEdges, s.finalEdges, s.survivingInitialEdges,
                      bits(s.meanDisplacement));
  };
  sim.finalizeDynamics();
  const auto once = fields(sim.dynamics()->stats());
  EXPECT_EQ(std::get<2>(once), 3u);  // slot 0, slot 31 and the final sample
  sim.finalizeDynamics();
  sim.finalizeDynamics();
  EXPECT_EQ(fields(sim.dynamics()->stats()), once);

  // An advance re-opens the run: the next finalize samples again.
  sim.step([](NodeId) { return Intent::idle(); }, [](NodeId, const Reception&) {});
  sim.finalizeDynamics();
  EXPECT_EQ(sim.dynamics()->stats().graphSamples, std::get<2>(once) + 1);
}

TEST(DriftSampler, TelemetryTimesTheDynamicsHook) {
  const MetricsArmed armed;
  Network net = test::makeUniformNetwork(80, 1.0, 29);
  Simulator sim(net, 1, 5);
  TopologyParams topo;
  topo.mobility.kind = MobilityKind::RandomWaypoint;
  topo.mobility.speed = 0.05;
  topo.sampleEvery = 10;
  sim.attachDynamics(topo);
  for (int t = 0; t < 100; ++t) {
    sim.step([](NodeId) { return Intent::idle(); }, [](NodeId, const Reception&) {});
  }
  const TopologyStats& s = sim.dynamics()->stats();
  const telemetry::MetricsSnapshot m = telemetry::snapshotMetrics();
  const telemetry::TimerSample* advance = m.findTimer("mobility.advance");
  const telemetry::TimerSample* sample = m.findTimer("mobility.sample");
  ASSERT_NE(advance, nullptr);
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(advance->count, 100u);
  EXPECT_EQ(sample->count, s.graphSamples);  // 1 at attach + 10 periodic
  EXPECT_EQ(s.graphSamples, 11u);
  EXPECT_EQ(m.counterOr("mobility.graph_samples"), s.graphSamples);
  EXPECT_GT(m.counterOr("mobility.sampler_rebuilds"), 1u);  // waypoint motion outruns the skin
  EXPECT_LE(m.counterOr("mobility.sampler_rebuilds"), s.graphSamples);
}

// ---------------------------------------------------------------- presets

TEST(MobilePresets, EveryProtocolKindHasOneAndItRuns) {
  bool covered[kNumProtocolKinds] = {};
  for (const std::string& name : ScenarioRegistry::names()) {
    if (name.rfind("mobile_", 0) != 0) continue;
    ScenarioSpec spec;
    ASSERT_TRUE(ScenarioRegistry::find(name, spec));
    EXPECT_TRUE(spec.topology.dynamic()) << name;
    covered[static_cast<int>(spec.protocol)] = true;
    spec.seeds = 1;
    const SeedResult a = runScenarioSeed(spec, spec.seed0);
    EXPECT_TRUE(a.error.empty()) << name << ": " << a.error;
    EXPECT_TRUE(a.delivered) << name;
    const SeedResult b = runScenarioSeed(spec, spec.seed0);
    EXPECT_EQ(a.slots, b.slots) << name;
    EXPECT_EQ(a.metrics, b.metrics) << name;
  }
  for (int k = 0; k < kNumProtocolKinds; ++k) {
    EXPECT_TRUE(covered[k]) << "no mobile preset for ProtocolKind "
                            << toString(static_cast<ProtocolKind>(k));
  }
}

}  // namespace
}  // namespace mcs
