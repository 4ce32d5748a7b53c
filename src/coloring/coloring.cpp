#include "coloring/coloring.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "agg/intra.h"
#include "proto/heap_tree.h"

namespace mcs {
namespace {

/// Heap role of a node within its cluster's reporter tree (-1 = follower).
int heapOf(const AggregationStructure& s, NodeId v) {
  const auto vi = static_cast<std::size_t>(v);
  if (s.clustering.isDominator[vi]) return 0;
  if (s.isReporter[vi]) return static_cast<int>(s.reporterChannel[vi]) + 1;
  return -1;
}

}  // namespace

ColoringResult runColoring(Simulator& sim, const AggregationStructure& s) {
  const Network& net = sim.network();
  const Tuning& tun = net.tuning();
  const int n = net.size();
  const int F = sim.numChannels();
  const Clustering& cl = s.clustering;
  const TdmaSchedule& tdma = s.tdma;
  const int phi = std::max(1, tdma.period);

  ColoringResult out;
  out.colorOf.assign(static_cast<std::size_t>(n), -1);

  // Protocol progress probe (telemetry/probes.h): nodes colored so far
  // over the node total, sampled per slot when probes are armed.  The
  // guard clears the probe on every exit path so the Simulator never
  // holds a dangling reference to `out` after this frame returns.
  struct ProgressProbeGuard {
    Simulator& sim;
    ~ProgressProbeGuard() { sim.setProgressProbe({}); }
  } probeGuard{sim};
  sim.setProgressProbe([&out, n](std::uint64_t& num, std::uint64_t& den) {
    std::uint64_t colored = 0;
    for (const int c : out.colorOf) colored += c >= 0 ? 1 : 0;
    num = colored;
    den = static_cast<std::uint64_t>(n);
    return true;
  });

  // ---- Procedure 1: followers report their IDs to reporters --------------
  std::vector<std::vector<NodeId>> followersOf(static_cast<std::size_t>(n));
  std::vector<ChannelId> reporterChannelOfFollower(static_cast<std::size_t>(n), kNoChannel);
  UplinkMetrics uplink = runFollowerUplink(
      sim, s, [](NodeId) { return Message{}; },
      [&](NodeId reporter, const Message& m) {
        followersOf[static_cast<std::size_t>(reporter)].push_back(m.src);
      },
      &reporterChannelOfFollower);
  out.costs.uplink = uplink.slots;
  out.complete = uplink.allDelivered;

  // ---- Procedure 2: subtree sizes up the reporter tree -------------------
  // ownBlock[v]: 1 (the role owner) + its followers.
  // childCount[v][k]: subtree size reported by heap child k.
  std::vector<std::int64_t> ownBlock(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<std::int64_t>> childCount(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const int k = heapOf(s, v);
    if (k < 0) continue;
    const auto vi = static_cast<std::size_t>(v);
    ownBlock[vi] = 1 + static_cast<std::int64_t>(followersOf[vi].size());
    childCount[vi].assign(static_cast<std::size_t>(F) + 2, 0);
  }
  const auto subtreeCount = [&](NodeId v) {
    const auto vi = static_cast<std::size_t>(v);
    std::int64_t total = ownBlock[vi];
    for (const std::int64_t c : childCount[vi]) total += c;
    return total;
  };

  const int maxLevel = heapMaxLevel(F);
  std::vector<NodeId> ackTo(static_cast<std::size_t>(n), kNoNode);
  std::vector<char> delivered(static_cast<std::size_t>(n), 0);
  long round = 0;
  const int passes = 3;
  // Retries happen WITHIN a level (pass loop inside): counts below a level
  // are final before the level transmits, so a parent can never hold a
  // stale child count — a child either delivers its final subtree size or
  // is dropped entirely (and then falls back to the overflow band below).
  for (int level = maxLevel; level >= 0; --level) {
    std::fill(delivered.begin(), delivered.end(), 0);
    for (int pass = 0; pass < passes; ++pass) {
      for (long cycle = 0; cycle < tdma.period; ++cycle, ++round) {
        for (const int parity : {0, 1}) {
          std::fill(ackTo.begin(), ackTo.end(), kNoNode);
          sim.step(
              [&](NodeId v) -> Intent {
                const auto vi = static_cast<std::size_t>(v);
                const int k = heapOf(s, v);
                if (k < 0 || !tdma.active(v, round)) return Intent::idle();
                // 0.9: deterministic retransmissions would collide with a
                // same-color cluster's tree forever.
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity && !delivered[vi] &&
                    sim.rng(v).bernoulli(0.9)) {
                  Message m;
                  m.type = MsgType::SubtreeCount;
                  m.src = v;
                  m.a = k;
                  m.b = cl.dominatorOf[vi];
                  m.x = static_cast<double>(subtreeCount(v));
                  return Intent::transmit(heapUplinkChannel(k), m);
                }
                if (heapLevel(std::max(1, k * 2)) == level) {
                  return Intent::listen(heapChannel(k));
                }
                return Intent::idle();
              },
              [&](NodeId v, const Reception& r) {
                const auto vi = static_cast<std::size_t>(v);
                if (!r.received || r.msg.type != MsgType::SubtreeCount) return;
                if (r.msg.b != cl.dominatorOf[vi]) return;
                const int childK = static_cast<int>(r.msg.a);
                if (heapParent(childK) != heapOf(s, v)) return;
                childCount[vi][static_cast<std::size_t>(childK)] =
                    static_cast<std::int64_t>(r.msg.x);
                ackTo[vi] = r.msg.src;
              });
          ++out.costs.tree;
          sim.step(
              [&](NodeId v) -> Intent {
                const auto vi = static_cast<std::size_t>(v);
                const int k = heapOf(s, v);
                if (k < 0 || !tdma.active(v, round)) return Intent::idle();
                if (ackTo[vi] != kNoNode) {
                  Message m;
                  m.type = MsgType::TreeUpAck;
                  m.src = v;
                  m.dst = ackTo[vi];
                  return Intent::transmit(heapChannel(k), m);
                }
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity && !delivered[vi]) {
                  return Intent::listen(heapUplinkChannel(k));
                }
                return Intent::idle();
              },
              [&](NodeId v, const Reception& r) {
                if (r.received && r.msg.type == MsgType::TreeUpAck && r.msg.dst == v) {
                  delivered[static_cast<std::size_t>(v)] = 1;
                }
              });
          ++out.costs.tree;
        }
      }
    }
  }

  // ---- Procedure 3: color ranges down the reporter tree ------------------
  // rangeLo[v] is the start of the role's block; the role takes indices
  // [rangeLo, rangeLo + ownBlock), its left child the next chunk, etc.
  std::vector<std::int64_t> rangeLo(static_cast<std::size_t>(n), -1);
  for (const NodeId d : cl.dominators) rangeLo[static_cast<std::size_t>(d)] = 0;

  const auto childRange = [&](NodeId v, int childK) -> std::int64_t {
    // Start index of child childK's block within v's range.
    const auto vi = static_cast<std::size_t>(v);
    const int k = heapOf(s, v);
    std::int64_t lo = rangeLo[vi] + ownBlock[vi];
    const int left = 2 * k;
    if (childK == left) return lo;
    return lo + childCount[vi][static_cast<std::size_t>(left)];
  };

  for (int pass = 0; pass < passes; ++pass) {
    for (int level = 0; level <= maxLevel; ++level) {
      for (long cycle = 0; cycle < tdma.period; ++cycle, ++round) {
        for (const int parity : {0, 1}) {
          sim.step(
              [&](NodeId v) -> Intent {
                const auto vi = static_cast<std::size_t>(v);
                const int k = heapOf(s, v);
                if (k < 0 || !tdma.active(v, round)) return Intent::idle();
                // Parents with a known range announce the child of this
                // parity at this level.  A leaf's child index can run past
                // childCount's last index F + 1: no such child exists.
                const int childK = 2 * k + parity;
                if (rangeLo[vi] >= 0 && childK >= 1 && heapLevel(childK) == level &&
                    static_cast<std::size_t>(childK) < childCount[vi].size() &&
                    childCount[vi][static_cast<std::size_t>(childK)] > 0 &&
                    sim.rng(v).bernoulli(0.9)) {
                  Message m;
                  m.type = MsgType::ColorRange;
                  m.src = v;
                  m.a = childK;
                  m.b = childRange(v, childK);
                  m.x = static_cast<double>(cl.dominatorOf[vi]);  // cluster-scoped
                  return Intent::transmit(heapChannel(k), m);
                }
                if (k >= 1 && heapLevel(k) == level && (k & 1) == parity && rangeLo[vi] < 0) {
                  return Intent::listen(heapUplinkChannel(k));
                }
                return Intent::idle();
              },
              [&](NodeId v, const Reception& r) {
                const auto vi = static_cast<std::size_t>(v);
                if (!r.received || r.msg.type != MsgType::ColorRange) return;
                if (static_cast<NodeId>(r.msg.x) != cl.dominatorOf[vi]) return;
                if (static_cast<int>(r.msg.a) == heapOf(s, v) && rangeLo[vi] < 0) {
                  rangeLo[vi] = r.msg.b;
                }
              });
          ++out.costs.tree;
        }
      }
    }
  }

  // Fallback for orphaned subtrees: a channel that elected no reporter
  // leaves its heap children without a parent, so no range ever reaches
  // them.  An orphan reporter k instead uses the reserved overflow band
  // [n(k+1), n(k+1) + block): n bounds every cluster size (nodes know a
  // polynomial estimate of n, §2), so bands are disjoint from the main
  // range [0, |C_v|) and from each other (distinct k).  Rare, and only
  // inflates the palette when it triggers.
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int k = heapOf(s, v);
    if (k >= 1 && s.isReporter[vi] && rangeLo[vi] < 0) {
      rangeLo[vi] = static_cast<std::int64_t>(n) * static_cast<std::int64_t>(k + 1);
    }
  }

  // ---- Procedure 4: reporters assign colors to their followers ------------
  // color = clusterColor + phi * k-index.  Role owners color themselves.
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (heapOf(s, v) >= 0 && rangeLo[vi] >= 0) {
      out.colorOf[vi] =
          tdma.colorOfNode[vi] + phi * static_cast<int>(rangeLo[vi]);
    }
  }

  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<char> acked(static_cast<std::size_t>(n), 0);  // per-slot scratch
  int pendingFollowers = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (s.isFollower(v)) ++pendingFollowers;
  }
  std::size_t maxList = 0;
  for (NodeId v = 0; v < n; ++v) {
    maxList = std::max(maxList, followersOf[static_cast<std::size_t>(v)].size());
  }
  const long cap =
      (static_cast<long>(maxList) * 2 + tun.lnRounds(4.0, n)) * std::max(1, tdma.period) + 8;
  for (long t = 0; t < cap && pendingFollowers > 0; ++t, ++round) {
    // Slot A: assignment.
    sim.step(
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (!tdma.active(v, round)) return Intent::idle();
          // 0.85: deterministic retransmissions would collide forever with
          // a same-color cluster assigning on the same channel.
          if (s.isReporter[vi] && rangeLo[vi] >= 0 && cursor[vi] < followersOf[vi].size() &&
              sim.rng(v).bernoulli(0.85)) {
            const NodeId f = followersOf[vi][cursor[vi]];
            Message m;
            m.type = MsgType::AssignColor;
            m.src = v;
            m.dst = f;
            // Follower i gets k-index rangeLo + 1 + i.
            m.a = rangeLo[vi] + 1 + static_cast<std::int64_t>(cursor[vi]);
            return Intent::transmit(s.reporterChannel[vi], m);
          }
          // Followers keep listening even once colored: a lost ack makes
          // the reporter re-send, and the re-receipt re-arms the ack.
          if (s.isFollower(v) && reporterChannelOfFollower[vi] != kNoChannel) {
            return Intent::listen(reporterChannelOfFollower[vi]);
          }
          return Intent::idle();
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received || r.msg.type != MsgType::AssignColor || r.msg.dst != v) return;
          if (out.colorOf[vi] < 0) {
            out.colorOf[vi] = tdma.colorOfNode[vi] + phi * static_cast<int>(r.msg.a);
            --pendingFollowers;
          }
          acked[vi] = 1;  // remember to ack in slot B
        });
    ++out.costs.broadcast;
    // Slot B: follower acks; reporter advances its cursor.
    sim.step(
        [&](NodeId v) -> Intent {
          const auto vi = static_cast<std::size_t>(v);
          if (!tdma.active(v, round)) return Intent::idle();
          if (acked[vi] && sim.rng(v).bernoulli(0.85)) {
            acked[vi] = 0;
            Message m;
            m.type = MsgType::DataAck;
            m.src = v;
            m.dst = kNoNode;
            return Intent::transmit(reporterChannelOfFollower[vi], m);
          }
          if (s.isReporter[vi] && rangeLo[vi] >= 0 &&
              cursor[vi] < followersOf[vi].size()) {
            return Intent::listen(s.reporterChannel[vi]);
          }
          return Intent::idle();
        },
        [&](NodeId v, const Reception& r) {
          const auto vi = static_cast<std::size_t>(v);
          if (!r.received || r.msg.type != MsgType::DataAck) return;
          if (s.isReporter[vi] &&
              r.msg.src == followersOf[vi][std::min(cursor[vi], followersOf[vi].size() - 1)]) {
            ++cursor[vi];
          }
        });
    ++out.costs.broadcast;
  }
  if (pendingFollowers > 0) out.complete = false;

  if (std::getenv("MCS_COLOR_DEBUG") != nullptr) {
    int repNoRange = 0, folNoChan = 0, folUncolored = 0, repPending = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (s.isReporter[vi] && rangeLo[vi] < 0) ++repNoRange;
      if (s.isReporter[vi] && rangeLo[vi] >= 0 && cursor[vi] < followersOf[vi].size()) {
        ++repPending;
      }
      if (s.isFollower(v) && reporterChannelOfFollower[vi] == kNoChannel) ++folNoChan;
      if (s.isFollower(v) && out.colorOf[vi] < 0) ++folUncolored;
    }
    std::fprintf(stderr,
                 "[coloring] uplinkOK=%d repNoRange=%d repPending=%d folNoChan=%d "
                 "folUncolored=%d pending=%d\n",
                 uplink.allDelivered ? 1 : 0, repNoRange, repPending, folNoChan, folUncolored,
                 pendingFollowers);
    const NodeId target = static_cast<NodeId>(std::atoi(std::getenv("MCS_COLOR_DEBUG")));
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (cl.dominatorOf[vi] != target) continue;
      const int k = heapOf(s, v);
      if (k < 0) continue;
      std::fprintf(stderr, "  role k=%d node=%d rangeLo=%lld ownBlock=%lld children:",
                   k, v, static_cast<long long>(rangeLo[vi]),
                   static_cast<long long>(ownBlock[vi]));
      for (std::size_t c = 0; c < childCount[vi].size(); ++c) {
        if (childCount[vi][c] > 0) {
          std::fprintf(stderr, " [%zu]=%lld", c, static_cast<long long>(childCount[vi][c]));
        }
      }
      std::fprintf(stderr, "\n");
    }
  }

  int maxColor = -1;
  for (const int c : out.colorOf) maxColor = std::max(maxColor, c);
  out.colorsUsed = maxColor + 1;
  return out;
}

int countColoringViolations(const Network& net, const std::vector<int>& colorOf) {
  const CommGraph& g = net.graph();
  int violations = 0;
  for (NodeId v = 0; v < net.size(); ++v) {
    for (const NodeId u : g.neighbors(v)) {
      if (u > v && colorOf[static_cast<std::size_t>(u)] >= 0 &&
          colorOf[static_cast<std::size_t>(u)] == colorOf[static_cast<std::size_t>(v)]) {
        ++violations;
      }
    }
  }
  return violations;
}

int countDistinctColors(const std::vector<int>& colorOf) {
  std::vector<int> sorted(colorOf);
  std::sort(sorted.begin(), sorted.end());
  int classes = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= 0 && (i == 0 || sorted[i] != sorted[i - 1])) ++classes;
  }
  return classes;
}

}  // namespace mcs
