#include "scenario/driver.h"

#include <algorithm>
#include <utility>

#include "agg/aggregate.h"
#include "baseline/aloha_agg.h"
#include "baseline/chain.h"
#include "coloring/coloring.h"
#include "proto/cluster_coloring.h"
#include "proto/csa.h"
#include "proto/dominating_set.h"
#include "proto/ruling_set.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace mcs {

std::string toString(OutcomeValidity v) {
  switch (v) {
    case OutcomeValidity::NotChecked: return "unchecked";
    case OutcomeValidity::Valid: return "valid";
    case OutcomeValidity::Invalid: return "INVALID";
  }
  return "?";
}

namespace {

OutcomeValidity verdict(bool ok) {
  return ok ? OutcomeValidity::Valid : OutcomeValidity::Invalid;
}

double u64(std::uint64_t x) { return static_cast<double>(x); }

std::vector<double> drawValues(Rng& valueRng, int n) {
  std::vector<double> values(static_cast<std::size_t>(n));
  for (double& x : values) x = valueRng.uniform();
  return values;
}

StructureOptions structureOptions(const ScenarioSpec& spec) {
  StructureOptions opts;
  opts.deltaHat = spec.deltaHat;
  opts.csa = spec.csaVariant;
  return opts;
}

/// Every node bound to a dominator within r_c — the Lemma-7 guarantee
/// the Theorem-24 geometry (2 r_c + R_eps <= R_{eps/2}) rests on.  A
/// tiny slack absorbs the boundary case of RSSI-ranged bindings.
bool clusteringBindsWithinRc(const Network& net, const Clustering& cl) {
  const double limit = net.rc() * (1.0 + 1e-9);
  for (NodeId v = 0; v < net.size(); ++v) {
    const NodeId d = cl.dominatorOf[static_cast<std::size_t>(v)];
    if (d == kNoNode) return false;
    if (d != v && net.distance(v, d) > limit) return false;
  }
  return true;
}

/// Dominator pairs within R_{eps/2} sharing a TDMA color (Lemma 8 wants 0).
int clusterColorSeparationViolations(const Network& net, const Clustering& cl) {
  int violations = 0;
  for (std::size_t i = 0; i < cl.dominators.size(); ++i) {
    for (std::size_t j = i + 1; j < cl.dominators.size(); ++j) {
      const NodeId a = cl.dominators[i];
      const NodeId b = cl.dominators[j];
      if (net.distance(a, b) <= net.rEpsHalf() &&
          cl.colorOfCluster[static_cast<std::size_t>(a)] ==
              cl.colorOfCluster[static_cast<std::size_t>(b)]) {
        ++violations;
      }
    }
  }
  return violations;
}

// ------------------------------------------------------------ aggregation

/// Shared body of the four PR-2 kinds.  The call sequence (draw values,
/// build structure, aggregate) is bit-identical to the pre-driver
/// runScenarioSeed, which tests/test_scenario.cpp locks in.
ProtocolOutcome runAggregationWorkload(Simulator& sim, const ScenarioSpec& spec, Rng& valueRng,
                                       AggKind kind, bool aloha) {
  const int n = sim.network().size();
  const auto values = drawValues(valueRng, n);
  const AggregationStructure s = buildStructure(sim, structureOptions(spec));
  const AggregateRun run = aloha ? runAlohaAggregation(sim, s, values, kind)
                                 : runAggregation(sim, s, values, kind);
  ProtocolOutcome out;
  out.structureSlots = s.costs.structureTotal();
  out.delivered = run.delivered;
  const double got = run.valueAtNode.empty() ? 0.0 : run.valueAtNode[0];
  const double truth = aggregateGroundTruth(values, kind);
  out.metrics.set("agg_value", got);
  out.metrics.set("truth_value", truth);
  out.metrics.set("uplink_slots", u64(run.costs.uplink));
  out.metrics.set("agg_slots", u64(run.costs.aggregationTotal()));
  if (!aloha) {
    // The §6 uplink's phase structure and contention (Lemmas 19-21).  The
    // ALOHA baseline has no phases, so it reports none.
    out.metrics.set("uplink_increasing_phases", run.uplink.increasingPhases);
    out.metrics.set("uplink_unchanging_phases", run.uplink.unchangingPhases);
    out.metrics.set("uplink_max_phases", run.uplink.maxPhasesAnyCluster);
    out.metrics.set("uplink_max_contention_ratio", run.uplink.maxContentionRatio);
  }
  out.validity = verdict(run.delivered && aggregateMatches(got, truth, kind));
  if (sim.dynamic()) {
    // Re-delivery under motion: a second data phase over the now-stale
    // structure, after the network kept drifting through the first one.
    // How much of the aggregation machinery survives the decay is the
    // drift stress the static metrics cannot show.
    const AggregateRun re = aloha ? runAlohaAggregation(sim, s, values, kind)
                                  : runAggregation(sim, s, values, kind);
    out.metrics.set("redelivered", re.delivered ? 1.0 : 0.0);
    out.metrics.set("redelivery_slots", u64(re.costs.aggregationTotal()));
  }
  return out;
}

struct AggregateMaxDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::AggregateMax; }
  const char* description() const noexcept override {
    return "build the §5 structure, aggregate MAX (§6, the headline result)";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng& valueRng) const override {
    return runAggregationWorkload(sim, spec, valueRng, AggKind::Max, /*aloha=*/false);
  }
};

struct AggregateSumDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::AggregateSum; }
  const char* description() const noexcept override {
    return "build the §5 structure, aggregate SUM over the exact backbone tree (§6)";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng& valueRng) const override {
    return runAggregationWorkload(sim, spec, valueRng, AggKind::Sum, /*aloha=*/false);
  }
};

struct AlohaDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::Aloha; }
  const char* description() const noexcept override {
    return "single-channel ALOHA baseline aggregation (MAX) on the same structure";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng& valueRng) const override {
    return runAggregationWorkload(sim, spec, valueRng, AggKind::Max, /*aloha=*/true);
  }
};

struct StructureDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::Structure; }
  const char* description() const noexcept override {
    return "build the §5 aggregation structure only (no data phase)";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng&) const override {
    const AggregationStructure s = buildStructure(sim, structureOptions(spec));
    const Clustering& cl = s.clustering;
    ProtocolOutcome out;
    out.structureSlots = s.costs.structureTotal();
    out.delivered = !cl.dominators.empty();
    out.metrics.set("clusters", static_cast<double>(cl.dominators.size()));
    out.metrics.set("tdma_colors", cl.numColors);
    out.metrics.set("max_cluster", largestClusterSize(cl));
    out.metrics.set("ds_slots", u64(s.costs.dominatingSet));
    out.metrics.set("cluster_coloring_slots", u64(s.costs.clusterColoring));
    out.metrics.set("csa_slots", u64(s.costs.csa));
    out.metrics.set("reporter_slots", u64(s.costs.reporters));
    out.validity = verdict(out.delivered && cl.numColors > 0 &&
                           clusteringBindsWithinRc(sim.network(), cl));
    return out;
  }
};

// --------------------------------------------------------------- coloring

struct ColoringDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::Coloring; }
  const char* description() const noexcept override {
    return "node coloring on the aggregation structure (§7, Thm 24): O(Delta) colors";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng&) const override {
    const Network& net = sim.network();
    const AggregationStructure s = buildStructure(sim, structureOptions(spec));
    const ColoringResult col = runColoring(sim, s);
    const int violations = countColoringViolations(net, col.colorOf);
    ProtocolOutcome out;
    out.structureSlots = s.costs.structureTotal();
    out.delivered = col.complete;
    out.metrics.set("colors_used", col.colorsUsed);
    out.metrics.set("color_classes", countDistinctColors(col.colorOf));
    out.metrics.set("coloring_violations", violations);
    out.metrics.set("coloring_uplink_slots", u64(col.costs.uplink));
    out.metrics.set("coloring_tree_slots", u64(col.costs.tree));
    out.metrics.set("coloring_assign_slots", u64(col.costs.broadcast));
    out.metrics.set("delta", net.maxDegree());
    out.validity = verdict(col.complete && violations == 0);
    return out;
  }
};

struct ClusterColoringDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::ClusterColoring; }
  const char* description() const noexcept override {
    return "dominating set + cluster coloring/TDMA (§5.1): R_{eps/2}-separated palettes";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec&, Rng&) const override {
    const Network& net = sim.network();
    DominatingSetResult ds = buildDominatingSet(sim);
    Clustering cl = std::move(ds.clustering);
    const ClusterColoringResult cc = colorClusters(sim, cl);
    const int violations = clusterColorSeparationViolations(net, cl);
    ProtocolOutcome out;
    out.structureSlots = ds.slotsUsed + cc.slotsUsed;
    out.delivered = cl.numColors > 0;
    out.metrics.set("clusters", static_cast<double>(cl.dominators.size()));
    out.metrics.set("tdma_colors", cl.numColors);
    out.metrics.set("coloring_phases", cc.phases);
    out.metrics.set("separation_violations", violations);
    out.metrics.set("ds_slots", u64(ds.slotsUsed));
    out.metrics.set("cluster_coloring_slots", u64(cc.slotsUsed));
    out.validity = verdict(out.delivered && violations == 0);
    return out;
  }
};

// -------------------------------------------------------------------- CSA

struct CsaDriver final : ProtocolDriver {
  /// The paper guarantees a constant-factor estimate; audit against a
  /// generous multiple so only gross failures flag as invalid.
  static constexpr double kWorstRatioBound = 16.0;

  ProtocolKind kind() const noexcept override { return ProtocolKind::Csa; }
  const char* description() const noexcept override {
    return "cluster-size approximation on the colored clustering (§5.2.1, Lemmas 12-14)";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng&) const override {
    DominatingSetResult ds = buildDominatingSet(sim);
    Clustering cl = std::move(ds.clustering);
    const ClusterColoringResult cc = colorClusters(sim, cl);
    CsaResult csa;
    switch (spec.csaVariant) {
      case CsaVariant::Auto: csa = runCsa(sim, cl, spec.deltaHat); break;
      case CsaVariant::Large: csa = runCsaLarge(sim, cl, spec.deltaHat); break;
      case CsaVariant::Small: csa = runCsaSmall(sim, cl, spec.deltaHat); break;
    }
    const double ratio = csaWorstRatio(cl, csa.estimateOfNode);
    ProtocolOutcome out;
    out.structureSlots = ds.slotsUsed + cc.slotsUsed;
    out.delivered = !csa.estimateOfNode.empty();
    out.metrics.set("csa_slots", u64(csa.slotsUsed));
    out.metrics.set("csa_phases_max", csa.phasesMax);
    out.metrics.set("csa_all_terminated", csa.allTerminated ? 1.0 : 0.0);
    out.metrics.set("csa_worst_ratio", ratio);
    out.metrics.set("clusters", static_cast<double>(cl.dominators.size()));
    out.metrics.set("max_cluster", largestClusterSize(cl));
    out.validity = verdict(out.delivered && ratio <= kWorstRatioBound);
    return out;
  }
};

// ----------------------------------------------------- symmetry breaking

struct RulingSetDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::RulingSet; }
  const char* description() const noexcept override {
    return "the (r, 2r)-ruling set over all nodes (§4, Lemma 6): O(log n) rounds";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng&) const override {
    const Network& net = sim.network();
    const Tuning& tun = net.tuning();
    const int n = net.size();

    RulingSetConfig cfg;
    cfg.radius = spec.rulingRadius > 0.0 ? spec.rulingRadius : net.rc();
    cfg.capProb = 1.0 / (2.0 * tun.muDensity);
    cfg.initialProb = std::min(cfg.capProb, 0.5 / static_cast<double>(n < 1 ? 1 : n));
    cfg.epochRounds = tun.domEpochRounds;
    cfg.cycleProb = true;
    cfg.totalRounds = spec.rulingRounds > 0 ? spec.rulingRounds : 40 + tun.lnRounds(4.0, n);

    const std::vector<char> everyone(static_cast<std::size_t>(n), 1);
    const RulingSetResult rs = runRulingSet(sim, everyone, cfg);
    const RulingSetAudit audit = auditRulingSet(net, everyone, rs, cfg.radius);

    ProtocolOutcome out;
    out.structureSlots = rs.slotsUsed;
    out.delivered = audit.members > 0;
    out.metrics.set("ruling_set_size", audit.members);
    out.metrics.set("ruling_rounds", rs.roundsRun);
    out.metrics.set("independence_violations", audit.independenceViolations);
    out.metrics.set("unbound", audit.unbound);
    out.metrics.set("max_density", audit.maxDensity);
    out.metrics.set("ruling_radius", cfg.radius);
    // Validity gates on the load-bearing guarantees (2r-domination and
    // constant density via the packing bound).  Strict r-independence is
    // reported but not gating: the practical tuning (self-electing
    // survivors, cycling probabilities) trades a small violation rate
    // for O(log n) rounds — see RulingSetConfig.
    out.validity = verdict(audit.members > 0 && audit.unbound == 0 &&
                           audit.maxDensity <= packingBound(cfg.radius, cfg.radius));
    return out;
  }
};

struct DominatingSetDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::DominatingSet; }
  const char* description() const noexcept override {
    return "the r_c-dominating set + clustering function (§5.1.1, Lemma 7)";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec&, Rng&) const override {
    const Network& net = sim.network();
    const DominatingSetResult ds = buildDominatingSet(sim);
    const Clustering& cl = ds.clustering;
    ProtocolOutcome out;
    out.structureSlots = ds.slotsUsed;
    out.delivered = !cl.dominators.empty();
    out.metrics.set("clusters", static_cast<double>(cl.dominators.size()));
    out.metrics.set("ds_rounds", ds.roundsRun);
    out.metrics.set("max_cluster", largestClusterSize(cl));
    out.validity = verdict(out.delivered && clusteringBindsWithinRc(net, cl));
    return out;
  }
};

// ---------------------------------------------------------- chain baseline

struct ChainBaselineDriver final : ProtocolDriver {
  ProtocolKind kind() const noexcept override { return ProtocolKind::ChainBaseline; }
  const char* description() const noexcept override {
    return "exponential-chain concurrency sampling (§1): <= 1 descending sender/channel/slot";
  }
  ProtocolOutcome run(Simulator& sim, const ScenarioSpec& spec, Rng& valueRng) const override {
    const Network& net = sim.network();
    // The sampler's seed comes from the value stream so the draw is
    // per-seed deterministic.
    const std::uint64_t chainSeed = valueRng();
    // Static runs sample on a private Simulator (bit-identical to the
    // pre-mobility driver); dynamic runs sample through the scenario's
    // own Simulator, so churn gates the senders and the runner's drift
    // metrics cover the sampled slots.
    const ChainSlotStats st =
        sim.dynamic() ? chainConcurrency(sim, spec.chainTrials)
                      : chainConcurrency(net, sim.numChannels(), spec.chainTrials, chainSeed);
    ProtocolOutcome out;
    out.delivered = st.trials > 0;
    out.metrics.set("chain_trials", st.trials);
    out.metrics.set("max_descending", st.maxDescendingSuccesses);
    out.metrics.set("mean_descending", st.meanDescendingSuccesses);
    out.metrics.set("max_total", st.maxConcurrentSuccesses);
    out.metrics.set("mean_total", st.meanSuccesses);
    out.metrics.set("concurrency_bound",
                    chainConcurrencyBound(net.sinr().alpha, net.sinr().beta));
    // §1: at most ONE distinct descending sender per channel per slot.
    out.validity = verdict(st.trials > 0 && st.maxDescendingSuccesses <= sim.numChannels());
    return out;
  }
};

}  // namespace

const ProtocolDriver& protocolDriver(ProtocolKind kind) {
  static const AggregateMaxDriver aggMax;
  static const AggregateSumDriver aggSum;
  static const AlohaDriver aloha;
  static const StructureDriver structure;
  static const ColoringDriver coloring;
  static const ClusterColoringDriver clusterColoring;
  static const CsaDriver csa;
  static const RulingSetDriver rulingSet;
  static const DominatingSetDriver dominatingSet;
  static const ChainBaselineDriver chainBaseline;
  switch (kind) {
    case ProtocolKind::AggregateMax: return aggMax;
    case ProtocolKind::AggregateSum: return aggSum;
    case ProtocolKind::Aloha: return aloha;
    case ProtocolKind::Structure: return structure;
    case ProtocolKind::Coloring: return coloring;
    case ProtocolKind::ClusterColoring: return clusterColoring;
    case ProtocolKind::Csa: return csa;
    case ProtocolKind::RulingSet: return rulingSet;
    case ProtocolKind::DominatingSet: return dominatingSet;
    case ProtocolKind::ChainBaseline: return chainBaseline;
  }
  return aggMax;  // unreachable for in-range kinds
}

std::vector<ProtocolKind> allProtocolKinds() {
  std::vector<ProtocolKind> kinds;
  kinds.reserve(kNumProtocolKinds);
  for (int k = 0; k < kNumProtocolKinds; ++k) {
    kinds.push_back(static_cast<ProtocolKind>(k));
  }
  return kinds;
}

}  // namespace mcs
