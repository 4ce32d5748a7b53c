#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "mcs.h"

/// Shared helpers for the mcsinr test suite.
namespace mcs::test {

/// One FNV-1a step over the 8 bytes of `v` (the golden-hash recipe).
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// The bit pattern of a double, for bit-identity hashes and comparisons.
inline std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// A connected-ish uniform deployment in a `side` x `side` square.
inline Network makeUniformNetwork(int n, double side, std::uint64_t seed, Tuning tuning = {}) {
  Rng rng(seed);
  auto pts = deployUniformSquare(n, side, rng);
  return Network(std::move(pts), SinrParams{}, tuning);
}

/// Builds the full aggregation structure on a fresh simulator.
struct BuiltStructure {
  Network net;
  Simulator sim;
  AggregationStructure s;

  BuiltStructure(int n, double side, int channels, std::uint64_t seed, Tuning tuning = {},
                 StructureOptions opts = {})
      : net(makeUniformNetwork(n, side, seed, tuning)), sim(net, channels, seed ^ 0xabcdef), s() {
    s = buildStructure(sim, opts);
  }
};

/// Ground truth: number of dominatees per dominator id.
inline std::vector<int> trueClusterSizes(const Network& net, const Clustering& cl) {
  std::vector<int> size(static_cast<std::size_t>(net.size()), 0);
  for (NodeId v = 0; v < net.size(); ++v) {
    const NodeId d = cl.dominatorOf[static_cast<std::size_t>(v)];
    if (d != kNoNode && d != v) ++size[static_cast<std::size_t>(d)];
  }
  return size;
}

/// Number of dominator pairs within distance r (independence violations).
inline int independenceViolations(const Network& net, const Clustering& cl, double r) {
  int violations = 0;
  for (std::size_t i = 0; i < cl.dominators.size(); ++i) {
    for (std::size_t j = i + 1; j < cl.dominators.size(); ++j) {
      if (net.distance(cl.dominators[i], cl.dominators[j]) <= r) ++violations;
    }
  }
  return violations;
}

/// Number of same-color dominator pairs within R_{eps/2}.
inline int colorSeparationViolations(const Network& net, const Clustering& cl) {
  int violations = 0;
  for (std::size_t i = 0; i < cl.dominators.size(); ++i) {
    for (std::size_t j = i + 1; j < cl.dominators.size(); ++j) {
      const NodeId a = cl.dominators[i];
      const NodeId b = cl.dominators[j];
      if (cl.colorOfCluster[static_cast<std::size_t>(a)] ==
              cl.colorOfCluster[static_cast<std::size_t>(b)] &&
          net.distance(a, b) <= net.rEpsHalf()) {
        ++violations;
      }
    }
  }
  return violations;
}

/// Reporter census per (cluster, channel < fv): returns {channels with
/// exactly one reporter, channels with members but wrong reporter count}.
inline std::pair<int, int> reporterCensus(const Network& net, const AggregationStructure& s) {
  int good = 0;
  int bad = 0;
  for (const NodeId d : s.clustering.dominators) {
    const int fv = s.fvOfNode[static_cast<std::size_t>(d)];
    std::vector<int> reporters(static_cast<std::size_t>(fv), 0);
    std::vector<int> members(static_cast<std::size_t>(fv), 0);
    for (NodeId v = 0; v < net.size(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (s.clustering.dominatorOf[vi] != d || v == d) continue;
      if (s.reporterChannel[vi] < fv) {
        ++members[static_cast<std::size_t>(s.reporterChannel[vi])];
        if (s.isReporter[vi]) ++reporters[static_cast<std::size_t>(s.reporterChannel[vi])];
      }
    }
    for (int c = 0; c < fv; ++c) {
      if (members[static_cast<std::size_t>(c)] == 0) continue;  // empty channel: vacuous
      if (reporters[static_cast<std::size_t>(c)] == 1) {
        ++good;
      } else {
        ++bad;
      }
    }
  }
  return {good, bad};
}

}  // namespace mcs::test
