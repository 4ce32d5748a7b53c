#include "scenario/runner.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace mcs {

namespace {

struct SeedTelemetry {
  telemetry::TimerId deploy = telemetry::timerId("scenario.deploy");
  telemetry::TimerId driverRun = telemetry::timerId("driver.run");
  telemetry::TraceNameId seedStart = telemetry::traceName("seed.start");
  telemetry::TraceNameId seedDeployed = telemetry::traceName("seed.deployed");
  telemetry::TraceNameId seedDone = telemetry::traceName("seed.done");
};

const SeedTelemetry& seedTm() {
  static const SeedTelemetry ids;
  return ids;
}

template <class Fn>
Summary summarizeOver(const std::vector<SeedResult>& perSeed, Fn metric) {
  std::vector<double> xs;
  xs.reserve(perSeed.size());
  for (const SeedResult& r : perSeed) {
    if (!r.failed()) xs.push_back(metric(r));
  }
  return summarize(xs);
}

}  // namespace

Summary ScenarioBatchResult::summarizeSlots() const {
  return summarizeOver(perSeed, [](const SeedResult& r) { return static_cast<double>(r.slots); });
}

Summary ScenarioBatchResult::summarizeDecodeRate() const {
  return summarizeOver(perSeed, [](const SeedResult& r) { return r.decodeRate; });
}

Summary ScenarioBatchResult::summarizeWallSec() const {
  std::vector<double> xs;
  xs.reserve(perSeed.size());
  for (const SeedResult& r : perSeed) xs.push_back(r.wallSec);
  return summarize(xs);
}

Summary ScenarioBatchResult::summarizeMetric(const std::string& name) const {
  std::vector<double> xs;
  xs.reserve(perSeed.size());
  for (const SeedResult& r : perSeed) {
    if (r.failed()) continue;
    if (const double* v = r.metrics.find(name)) xs.push_back(*v);
  }
  return summarize(xs);
}

std::vector<std::string> ScenarioBatchResult::metricNames() const {
  std::vector<std::string> names;
  for (const SeedResult& r : perSeed) {
    for (const auto& [name, value] : r.metrics.entries()) {
      bool seen = false;
      for (const std::string& have : names) {
        if (have == name) {
          seen = true;
          break;
        }
      }
      if (!seen) names.push_back(name);
    }
  }
  return names;
}

SeedResult runScenarioSeed(const ScenarioSpec& spec, std::uint64_t seed) {
  SeedResult res;
  res.seed = seed;
  const double t0 = nowSec();
  const auto seedArg = static_cast<std::int64_t>(seed);
  telemetry::traceInstant(seedTm().seedStart, seedArg);
  try {
    Rng deployRng(seed);
    std::vector<Vec2> pts;
    {
      const telemetry::PhaseTimer t(seedTm().deploy);
      pts = materializeDeployment(spec.deployment, deployRng);
    }
    telemetry::traceInstant(seedTm().seedDeployed, seedArg);
    res.deployedN = static_cast<int>(pts.size());
    if (pts.empty()) throw std::runtime_error("deployment produced no nodes");

    // bounds_width > 0 hands the protocols uncertainty ranges instead of
    // the exact parameters; the Medium still runs on the true sinr.
    const SinrBounds bounds = spec.boundsWidth > 0.0
                                  ? SinrBounds::around(spec.sinr, spec.boundsWidth)
                                  : SinrBounds::exact(spec.sinr);
    Network net(std::move(pts), spec.sinr, Tuning{}, &bounds);
    Simulator sim(net, spec.channels, seed);
    // Dynamic topologies attach the per-slot mobility/churn hook; static
    // specs attach nothing and stay bit-identical to the pre-mobility
    // engine (the dynamics keys are root-Rng forks, never draws).
    if (spec.topology.dynamic()) sim.attachDynamics(spec.topology);
    Rng valueRng = Rng(seed).fork(kValueStream);

    ProtocolOutcome out;
    {
      const telemetry::PhaseTimer t(seedTm().driverRun);
      out = protocolDriver(spec.protocol).run(sim, spec, valueRng);
    }
    res.structureSlots = out.structureSlots;
    res.delivered = out.delivered;
    res.validity = out.validity;
    res.metrics = std::move(out.metrics);

    const MediumStats& ms = sim.mediumStats();
    res.slots = ms.slots;
    res.transmissions = ms.transmissions;
    res.listens = ms.listens;
    res.decodes = ms.decodes;
    res.decodeRate = ms.decodeRate();

    if (sim.dynamic()) {
      // Drift metrics: how much the communication graph decayed under the
      // run's motion/churn (sampled every mobility_sample_every slots by
      // re-testing a skin-radius candidate list; see mobility/mobility.h).
      sim.finalizeDynamics();
      const TopologyStats& ts = sim.dynamics()->stats();
      res.metrics.set("alive_final", sim.aliveCount());
      res.metrics.set("churn_departures", static_cast<double>(ts.departures));
      res.metrics.set("churn_arrivals", static_cast<double>(ts.arrivals));
      res.metrics.set("mean_displacement", ts.meanDisplacement);
      res.metrics.set("edge_churn_per_slot", ts.edgeChurnPerSlot(ms.slots));
      res.metrics.set("edge_survival", ts.edgeSurvival());
    }
  } catch (const std::exception& e) {
    res.error = e.what();
  } catch (...) {
    res.error = "unknown exception";
  }
  res.wallSec = nowSec() - t0;
  telemetry::traceInstant(seedTm().seedDone, seedArg);
  return res;
}

ScenarioBatchResult runScenarioBatch(const ScenarioSpec& spec, int threads) {
  ScenarioBatchResult batch;
  batch.spec = spec;
  const int seeds = spec.seeds;
  batch.perSeed.resize(static_cast<std::size_t>(seeds));
  const auto runRange = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      batch.perSeed[i] = runScenarioSeed(spec, spec.seed0 + i);
    }
  };
  if (threads > 1 && seeds > 1) {
    ThreadPool pool(threads);
    pool.parallelFor(static_cast<std::size_t>(seeds), runRange);
  } else {
    runRange(0, static_cast<std::size_t>(seeds));
  }
  return batch;
}

}  // namespace mcs
