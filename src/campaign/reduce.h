#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/probes.h"
#include "util/sketch.h"

/// Streaming tree reduction of per-cell statistics — the campaign
/// coordinator's merge stage.
///
/// Workers finish cells in whatever order the work queue and the
/// machine's scheduler produce, but the campaign-wide aggregates must
/// not depend on that order: OnlineStats::merge is only
/// order-independent *up to floating-point rounding*, so a naive
/// fold-on-arrival would make the reduced means wobble in the last bits
/// from run to run.  The reducer instead fixes a binary tree over the
/// leaf indices (the same shape for a given leaf count, the pattern
/// GASNet-style collective reductions use) and folds a node only when
/// both children are present, always left-into-right-of — so the merged
/// result is a pure function of the leaf values, bit-for-bit, no matter
/// the arrival permutation (locked by tests/test_campaign.cpp).
///
/// Memory stays proportional to the tree frontier: leaves arriving
/// roughly in order keep O(log n) pending nodes; the worst adversarial
/// order (every other leaf first) peaks at O(n/2) node records of a few
/// summaries each — still nothing like buffering per-seed rows.
namespace mcs::campaign {

/// Each reduction node holds name-sorted per-metric NamedStats: moments
/// plus the mergeable quantile state (util/sketch.h).  Leaves are a
/// cell's per-seed stats; the root is the whole campaign's.  The sketch
/// half is merge-order invariant outright (integer bucket counts), so
/// the fixed tree shape is only load-bearing for the moments — but both
/// ride it, and the root stays a pure function of the leaves.
class TreeReducer {
 public:
  /// A reducer over exactly `leaves` cells (0 is valid and yields an
  /// empty reduction).
  explicit TreeReducer(std::size_t leaves);

  /// Folds leaf `index`'s statistics in; call exactly once per leaf, in
  /// any order.  `stats` need not be sorted; metric-name union across
  /// leaves is fine (a metric missing from a leaf simply contributes no
  /// samples there).  `probes` (decode-attribution sketches + slot
  /// series, telemetry/probes.h) rides the same node merges; its folds
  /// commute outright, so the fixed tree shape is belt-and-braces there,
  /// but carrying it through the one reduction path keeps the campaign
  /// aggregate a single pure function of the leaves.
  void addLeaf(std::size_t index, NamedStats stats,
               telemetry::ProbeState probes = telemetry::ProbeState());

  /// True once every leaf has arrived.
  [[nodiscard]] bool complete() const noexcept { return received_ == leaves_; }

  /// Pending (partially merged) internal nodes — the memory frontier.
  [[nodiscard]] std::size_t pendingNodes() const noexcept { return pending_.size(); }

  /// The root aggregate.  Only meaningful when complete(); an incomplete
  /// reduction returns whatever has reached the root (empty until then).
  [[nodiscard]] const NamedStats& root() const noexcept { return root_.stats; }

  /// The root probe aggregate (empty unless leaves carried probes).
  [[nodiscard]] const telemetry::ProbeState& rootProbes() const noexcept {
    return root_.probes;
  }

 private:
  /// One reduction node: the per-metric statistics plus the probe payload
  /// riding the same merges.
  struct Node {
    NamedStats stats;
    telemetry::ProbeState probes;
  };

  void place(std::size_t level, std::size_t idx, Node node);

  std::size_t leaves_ = 0;
  std::size_t received_ = 0;
  /// levelSize_[l] = node count at level l (level 0 = leaves); the last
  /// level has exactly one node, the root.
  std::vector<std::size_t> levelSize_;
  std::unordered_map<std::uint64_t, Node> pending_;
  Node root_;
};

/// Merges two name-sorted NamedStats (left folded into right's values
/// via StreamingStats::merge, i.e. result = left.merge(right) per shared
/// metric); names only in one side pass through.  Sketch-mode quantile
/// merges are counted under the store.sketch_merges telemetry counter.
/// Exposed for tests.
[[nodiscard]] NamedStats mergeMetricStats(const NamedStats& left, const NamedStats& right);

/// Sorts by metric name (the canonical node form addLeaf establishes).
void sortMetricStats(NamedStats& stats);

}  // namespace mcs::campaign
