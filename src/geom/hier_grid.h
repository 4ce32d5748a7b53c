#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"

/// Multi-level grid pyramid for Barnes-Hut-style far-field batching.
///
/// Built once per slot from the occupied base cells of a uniform grid
/// (GridIndex geometry + per-cell position sums), it answers "sum a field
/// over all points, batching distant regions coarsely" queries: each query
/// walks the pyramid coarse-to-fine and emits every region at the
/// coarsest level that passes the theta admissibility rule, so the
/// per-query cost drops from O(occupied base cells) toward
/// O(levels + cells near the admissibility boundary) = O(log n) for
/// bounded-density deployments.
namespace mcs {

/// One occupied base-level cell: its grid coordinates, the sum of its
/// members' positions (centroid * count), the member count, and an opaque
/// caller reference handed back verbatim when the cell must be resolved
/// exactly (Medium stores the index of its FarCell here).
struct HierBaseCell {
  long cx = 0;
  long cy = 0;
  double sumX = 0.0;
  double sumY = 0.0;
  std::int64_t count = 0;
  std::int32_t ref = -1;
};

class HierGrid {
 public:
  /// Deepest pyramid any long-indexable base grid needs (nx halves per
  /// level); callers size per-level tallies with it.
  static constexpr int kMaxLevels = 64;

  /// Rebuilds the pyramid over `base` cells laid out on a grid anchored at
  /// (minX, minY) with `nx` x `ny` cells of side `cellSize`.  Level 0 is
  /// the base grid; each coarser level halves the resolution (parent cell
  /// (cx, cy) covers children (2cx..2cx+1, 2cy..2cy+1)) and aggregates
  /// counts and position sums, up to a single root cell or `maxLevels`
  /// levels, whichever comes first.  The occupied cells are then laid out
  /// in forEachField's walk order, each with its admissibility threshold
  /// for `nearRadius` and `theta` (see there).  Internal storage is reused
  /// across rebuilds (per-slot callers allocate nothing in steady state).
  void build(double minX, double minY, double cellSize, long nx, long ny,
             std::span<const HierBaseCell> base, double nearRadius, double theta,
             int maxLevels = kMaxLevels);

  /// Empties the pyramid (queries visit nothing); storage is retained.
  void clear() noexcept {
    numLevels_ = 0;
    total_ = 0;
    boxes_.clear();
    cells_.clear();
  }

  [[nodiscard]] bool empty() const noexcept { return numLevels_ == 0; }
  [[nodiscard]] int levels() const noexcept { return numLevels_; }
  /// Total point count over all cells (0 when empty).
  [[nodiscard]] std::int64_t totalCount() const noexcept { return total_; }

  /// Coarse-to-fine field traversal for a query point `p`, under the
  /// `nearRadius` and `theta` of the last build.
  ///
  /// Every occupied region is reported exactly once, at the coarsest
  /// admissible level: a level-k cell is *admissible* when its box
  /// distance to `p` exceeds max(nearRadius, cellSize_k / theta).  An
  /// admissible cell invokes far(count, centroid, level, cx, cy) and its
  /// subtree is skipped; an inadmissible one is opened, and at level 0
  /// invokes near(ref) for the caller to resolve its members exactly.
  /// No admissible cell touches the near ball, so every point within
  /// nearRadius of `p` surfaces through near().  Members of an admissible
  /// cell at box distance d lie within cellSize_k * sqrt(2) <=
  /// theta * sqrt(2) * d of its centroid, a relative bound that holds
  /// uniformly at every level.  A one-level pyramid built with
  /// theta = infinity admits exactly the cells beyond nearRadius, which
  /// is NearFar's rule.
  ///
  /// The walk is one linear pass over the occupied cells in depth-first
  /// preorder (top-level cells row-major, children (dx, dy) = (0,0),
  /// (1,0), (0,1), (1,1)), where an admissible cell jumps past its
  /// subtree.  The order is a pure function of the pyramid and `p`, so
  /// per-listener results are reproducible and thread-count independent.
  template <class FarFn, class NearFn>
  void forEachField(Vec2 p, FarFn&& far, NearFn&& near) const {
    const Box* boxes = boxes_.data();
    const std::size_t m = boxes_.size();
    std::size_t i = 0;
    while (i < m) {
      const Box& b = boxes[i];
      // Distance to the closed box; equals GridIndex::cellDist2's branchy
      // below/inside/above form bit for bit (at most one term is positive).
      const double dx = std::max(std::max(b.x0 - p.x, p.x - b.x1), 0.0);
      const double dy = std::max(std::max(b.y0 - p.y, p.y - b.y1), 0.0);
      if (dx * dx + dy * dy > b.thr2) {
        const Cell& c = cells_[i];
        far(c.count, c.centroid, b.level, c.cx, c.cy);
        i = b.skip;
      } else {
        if (b.level == 0) near(b.ref);
        ++i;
      }
    }
  }

 private:
  /// One occupied cell in walk (preorder) position, split into what
  /// every visit reads (Box) and what only far() and near() read (Cell).
  struct Box {
    double x0, y0, x1, y1;  // closed box: x1 = x0 + cellSize_k
    double thr2;            // squared admissibility threshold of the level
    std::int32_t level;
    std::uint32_t skip;     // index just past this cell's subtree
    std::int32_t ref;       // caller ref (level 0 only)
  };
  struct Cell {
    Vec2 centroid;          // sum * (1 / count)
    std::int64_t count;
    long cx, cy;
  };

  struct Level {
    long nx = 0, ny = 0;
    std::vector<std::int64_t> count;
    std::vector<double> sumX, sumY;
  };

  /// Appends cell (cx, cy) of `level` and its occupied subtree in walk
  /// order (recursion depth is at most the level count).
  void emit(int level, long cx, long cy);

  std::vector<Box> boxes_;          // the walk, rebuilt by build()
  std::vector<Cell> cells_;         // payload, parallel to boxes_
  std::vector<Level> levels_;       // build scratch: levels_[0] is the
                                    // base grid; entries past numLevels_
                                    // retain capacity for reuse
  std::vector<std::int32_t> ref_;   // base-level caller refs (dense)
  double cellSize_[kMaxLevels] = {};
  double thr2_[kMaxLevels] = {};
  int numLevels_ = 0;
  std::int64_t total_ = 0;
  double minX_ = 0.0, minY_ = 0.0;
};

}  // namespace mcs
