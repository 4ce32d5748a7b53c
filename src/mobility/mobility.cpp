#include "mobility/mobility.h"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace mcs {

namespace {

struct DynamicsTelemetry {
  telemetry::CounterId departures = telemetry::counterId("churn.departures");
  telemetry::CounterId arrivals = telemetry::counterId("churn.arrivals");
  telemetry::TraceNameId depart = telemetry::traceName("churn.depart");
  telemetry::TraceNameId arrive = telemetry::traceName("churn.arrive");
  telemetry::TimerId advance = telemetry::timerId("mobility.advance");
  telemetry::TimerId sample = telemetry::timerId("mobility.sample");
  telemetry::CounterId graphSamples = telemetry::counterId("mobility.graph_samples");
  telemetry::CounterId rebuilds = telemetry::counterId("mobility.sampler_rebuilds");
};

const DynamicsTelemetry& dynTm() {
  static const DynamicsTelemetry ids;
  return ids;
}

/// Salts separating the independent draw families (same key, disjoint
/// streams).  Arbitrary odd constants.
constexpr std::uint64_t kArrivalSalt = 0x9e6d63735f617272ULL;   // "..mcs_arr"
constexpr std::uint64_t kWaypointSalt = 0x6d63735f77617970ULL;  // "mcs_wayp"
constexpr std::uint64_t kGroupSalt = 0x6d63735f67727570ULL;     // "mcs_grup"
constexpr std::uint64_t kMemberSalt = 0x6d63735f6d656d62ULL;    // "mcs_memb"

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// The edge flag of a packed (v << 32 | u) candidate (v < 2^31, so bit
/// 63 is free).
constexpr std::uint64_t kEdgeBit = 1ULL << 63;

/// The drift metrics' edge predicate: both ends alive and within R_eps
/// (r2 = R_eps^2).  Non-short-circuit `&`: near R_eps the outcome is a
/// coin flip, so a branch would mispredict.
bool isEdge(const std::vector<char>& alive, std::span<const Vec2> pos, std::size_t v,
            std::size_t u, double r2) noexcept {
  return (alive[v] != 0) & (alive[u] != 0) & (dist2(pos[u], pos[v]) <= r2);
}

}  // namespace

double detail::reflect(double x, double lo, double hi) noexcept {
  if (hi <= lo) return lo;
  const double span = hi - lo;
  const double period = 2.0 * span;
  double t = x - lo;
  if (!(t >= 0.0 && t < period)) {
    t = std::fmod(t, period);
    if (t < 0.0) t += period;
  }
  return lo + (t <= span ? t : period - t);
}

std::vector<MobilityModelInfo> mobilityModelList() {
  return {
      {"static", "no motion; scenarios stay bit-identical to pre-mobility runs"},
      {"random_walk",
       "each node steps `mobility_speed` in a fresh uniform direction per slot "
       "(reflected at the deployment box)"},
      {"random_waypoint",
       "walk toward a uniform waypoint at `mobility_speed`, dwell `mobility_pause` "
       "slots, repeat"},
      {"group",
       "`mobility_groups` reference points random-walk; members drift around them "
       "within `mobility_group_radius`"},
  };
}

TopologyDynamics::TopologyDynamics(const TopologyParams& params, std::span<const Vec2> initial,
                                   double graphRadius, std::uint64_t mobilityKey,
                                   std::uint64_t churnKey)
    : params_(params),
      graphRadius_(graphRadius),
      mobilityKey_(mobilityKey),
      churnKey_(churnKey),
      initial_(initial.begin(), initial.end()),
      alive_(initial.size(), 1),
      aliveCount_(static_cast<int>(initial.size())) {
  if (initial_.empty()) return;
  loX_ = hiX_ = initial_[0].x;
  loY_ = hiY_ = initial_[0].y;
  for (const Vec2& p : initial_) {
    loX_ = std::min(loX_, p.x);
    loY_ = std::min(loY_, p.y);
    hiX_ = std::max(hiX_, p.x);
    hiY_ = std::max(hiY_, p.y);
  }

  if (params_.mobility.kind == MobilityKind::RandomWaypoint) {
    const auto n = initial_.size();
    target_.resize(n);
    pauseLeft_.assign(n, 0);
    waypointIndex_.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      target_[v] = {loX_ + (hiX_ - loX_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 0),
                    loY_ + (hiY_ - loY_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 1)};
    }
  }
  if (params_.mobility.kind == MobilityKind::GroupReference) {
    const int groups = std::max(1, params_.mobility.groups);
    groupRef_.assign(static_cast<std::size_t>(groups), Vec2{});
    std::vector<int> members(static_cast<std::size_t>(groups), 0);
    for (std::size_t v = 0; v < initial_.size(); ++v) {
      const auto g = static_cast<std::size_t>(v % static_cast<std::size_t>(groups));
      groupRef_[g] = groupRef_[g] + initial_[v];
      ++members[g];
    }
    for (std::size_t g = 0; g < groupRef_.size(); ++g) {
      if (members[g] > 0) groupRef_[g] = groupRef_[g] * (1.0 / members[g]);
    }
  }

  // Slot-zero graph sample: the baseline the drift metrics diff against.
  sampleGraph(initial_, /*final=*/false);
}

void TopologyDynamics::advance(std::uint64_t slot, std::vector<Vec2>& positions) {
  const telemetry::PhaseTimer timer(dynTm().advance);
  finalized_ = false;
  if (params_.churn.enabled()) advanceChurn(slot);
  if (params_.mobility.moving()) advanceMotion(slot, positions);
  const auto every = static_cast<std::uint64_t>(std::max(1, params_.sampleEvery));
  if ((slot + 1) % every == 0) sampleGraph(positions, /*final=*/false);
}

void TopologyDynamics::advanceChurn(std::uint64_t slot) {
  const double dep = params_.churn.departureRate;
  const double arr = params_.churn.arrivalRate;
  for (std::size_t v = 0; v < alive_.size(); ++v) {
    if (alive_[v] != 0) {
      if (dep > 0.0 && unitDraw(churnKey_, slot, v) < dep) {
        alive_[v] = 0;
        --aliveCount_;
        ++stats_.departures;
        telemetry::counterAdd(dynTm().departures);
        telemetry::traceInstant(dynTm().depart, static_cast<std::int64_t>(v));
      }
    } else if (arr > 0.0 && unitDraw(churnKey_, slot, v ^ kArrivalSalt) < arr) {
      alive_[v] = 1;
      ++aliveCount_;
      ++stats_.arrivals;
      telemetry::counterAdd(dynTm().arrivals);
      telemetry::traceInstant(dynTm().arrive, static_cast<std::int64_t>(v));
    }
  }
}

void TopologyDynamics::advanceMotion(std::uint64_t slot, std::vector<Vec2>& positions) {
  const MobilityParams& m = params_.mobility;
  const double speed = m.speed;

  switch (m.kind) {
    case MobilityKind::Static:
      return;

    case MobilityKind::RandomWalk:
      for (std::size_t v = 0; v < positions.size(); ++v) {
        if (alive_[v] == 0) continue;  // departed nodes do not move
        const double theta = kTwoPi * unitDraw(mobilityKey_, slot, v);
        Vec2& p = positions[v];
        p.x = detail::reflect(p.x + speed * std::cos(theta), loX_, hiX_);
        p.y = detail::reflect(p.y + speed * std::sin(theta), loY_, hiY_);
      }
      return;

    case MobilityKind::RandomWaypoint:
      for (std::size_t v = 0; v < positions.size(); ++v) {
        if (alive_[v] == 0) continue;
        if (pauseLeft_[v] > 0) {
          --pauseLeft_[v];
          continue;
        }
        Vec2& p = positions[v];
        const Vec2 d = target_[v] - p;
        const double len = d.norm();
        if (len <= speed) {
          p = target_[v];
          pauseLeft_[v] = m.pause;
          const std::uint64_t idx = ++waypointIndex_[v];
          target_[v] = {
              loX_ + (hiX_ - loX_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 2 * idx),
              loY_ + (hiY_ - loY_) * unitDraw(mobilityKey_, kWaypointSalt ^ v, 2 * idx + 1)};
        } else {
          p = p + d * (speed / len);
        }
      }
      return;

    case MobilityKind::GroupReference: {
      for (std::size_t g = 0; g < groupRef_.size(); ++g) {
        const double theta = kTwoPi * unitDraw(mobilityKey_, slot, g ^ kGroupSalt);
        Vec2& r = groupRef_[g];
        r.x = detail::reflect(r.x + speed * std::cos(theta), loX_, hiX_);
        r.y = detail::reflect(r.y + speed * std::sin(theta), loY_, hiY_);
      }
      const std::size_t groups = groupRef_.size();
      const double memberStep = speed * 0.5;
      for (std::size_t v = 0; v < positions.size(); ++v) {
        if (alive_[v] == 0) continue;
        const Vec2 ref = groupRef_[v % groups];
        Vec2 offset = positions[v] - ref;
        const double theta = kTwoPi * unitDraw(mobilityKey_, slot, v ^ kMemberSalt);
        offset.x += memberStep * std::cos(theta);
        offset.y += memberStep * std::sin(theta);
        const double len = offset.norm();
        if (len > m.groupRadius) {
          // Soft tether: pull toward the boundary at the member step
          // rate.  A hard projection would teleport members whose
          // initial offset exceeds the tether (e.g. a uniform deployment
          // with near-coincident group references), breaking the
          // bounded-per-slot-displacement premise the drift sampler's
          // candidate list rests on.
          const double pull = std::min(memberStep, len - m.groupRadius);
          offset = offset * ((len - pull) / len);
        }
        positions[v] = ref + offset;
      }
      return;
    }
  }
}

void TopologyDynamics::sampleGraph(std::span<const Vec2> positions, bool final) {
  if (graphRadius_ <= 0.0 || positions.empty()) return;
  const telemetry::PhaseTimer timer(dynTm().sample);
  telemetry::counterAdd(dynTm().graphSamples);
  ++stats_.graphSamples;

  // Re-test the candidates at the current positions, counting flips.
  const double r2 = graphRadius_ * graphRadius_;
  std::uint64_t added = 0, removed = 0;
  std::size_t edges = 0;
  for (std::uint64_t& c : candidates_) {
    const std::uint64_t edge =
        isEdge(alive_, positions, (c & ~kEdgeBit) >> 32, static_cast<std::uint32_t>(c), r2);
    const std::uint64_t was = c >> 63;
    added += edge & ~was;
    removed += was & ~edge;
    c = (c & ~kEdgeBit) | (edge << 63);
    edges += edge;
  }

  // Exact only while every node stays within the slack of its anchor.
  const double slack = detail::kSamplerSlack * graphRadius_;
  bool drifted = anchor_.empty();
  for (std::size_t v = 0; v < anchor_.size() && !drifted; ++v) {
    drifted = dist2(positions[v], anchor_[v]) > slack * slack;
  }
  if (drifted) {
    // Every edge the old list missed is new: the re-test above already
    // holds the exact state of every old candidate, and old edges were
    // all candidates.
    const std::size_t rebuilt = rebuildCandidates(positions);
    added += rebuilt - edges;
    edges = rebuilt;
  }

  if (stats_.graphSamples == 1) {
    for (const std::uint64_t c : candidates_) {
      if ((c & kEdgeBit) != 0) initialEdges_.push_back(c & ~kEdgeBit);
    }
    stats_.initialEdges = edges;
  } else {
    stats_.edgesAdded += added;
    stats_.edgesRemoved += removed;
  }

  if (final) {
    stats_.finalEdges = edges;
    // Survival re-tests the initial edges directly: no list order needed.
    std::size_t surviving = 0;
    for (const std::uint64_t e : initialEdges_) {
      surviving += isEdge(alive_, positions, e >> 32, static_cast<std::uint32_t>(e), r2);
    }
    stats_.survivingInitialEdges = surviving;
  }
}

std::size_t TopologyDynamics::rebuildCandidates(std::span<const Vec2> positions) {
  telemetry::counterAdd(dynTm().rebuilds);
  const double r2 = graphRadius_ * graphRadius_;
  const double reach = (1.0 + detail::kSamplerSkin) * graphRadius_;
  anchor_.assign(positions.begin(), positions.end());
  // Index over ALL nodes: a dead node keeps its position, and may revive
  // before the next rebuild, so its pairs stay candidates.
  grid_.rebuild(positions, reach);
  candidates_.clear();
  std::size_t edges = 0;
  const auto n = static_cast<NodeId>(positions.size());
  for (NodeId v = 0; v < n; ++v) {
    grid_.forEachInBall(positions[static_cast<std::size_t>(v)], reach, [&](NodeId u) {
      if (u <= v) return;
      const std::uint64_t edge =
          isEdge(alive_, positions, static_cast<std::size_t>(v), static_cast<std::size_t>(u), r2);
      candidates_.push_back((static_cast<std::uint64_t>(v) << 32) | static_cast<std::uint32_t>(u) |
                            (edge << 63));
      edges += edge;
    });
  }
  return edges;
}

void TopologyDynamics::finalize(std::span<const Vec2> current) {
  if (finalized_) return;
  finalized_ = true;
  sampleGraph(current, /*final=*/true);
  double total = 0.0;
  for (std::size_t v = 0; v < initial_.size() && v < current.size(); ++v) {
    total += dist(initial_[v], current[v]);
  }
  stats_.meanDisplacement = initial_.empty() ? 0.0 : total / static_cast<double>(initial_.size());
}

}  // namespace mcs
