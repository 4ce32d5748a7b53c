#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "util/ids.h"

/// Uniform-grid spatial index over a fixed point set.
///
/// Used to build the communication graph and to answer "all points within
/// radius r of p" queries in O(points in the neighborhood) time.  The cell
/// size is chosen at build time (typically the query radius).  Moving
/// points are re-indexed with rebuild(): the Medium rebuilds its
/// per-channel grids every slot, and the mobility drift sampler only when
/// a node leaves its candidate-list skin.
namespace mcs {

class GridIndex {
 public:
  GridIndex() = default;

  /// Builds an index over `points` with cells of side `cellSize` (> 0).
  GridIndex(std::span<const Vec2> points, double cellSize);

  /// Re-indexes this instance over a new point set, reusing the internal
  /// buffers' capacity (for callers that rebuild every slot).
  void rebuild(std::span<const Vec2> points, double cellSize);

  /// Appends the ids of all points within distance `radius` of `center`
  /// (inclusive) to `out`.  `out` is cleared first.
  void queryBall(Vec2 center, double radius, std::vector<NodeId>& out) const;

  /// Convenience wrapper returning a fresh vector.
  [[nodiscard]] std::vector<NodeId> ball(Vec2 center, double radius) const;

  /// Calls `fn(id)` for every point within `radius` of `center`.
  template <class Fn>
  void forEachInBall(Vec2 center, double radius, Fn&& fn) const {
    if (cells_ == 0) return;
    const double r2 = radius * radius;
    // The cell window, and the skip of window cells whose box misses the
    // ball, use the ball widened by a relative slack: rounding in cellOf
    // and in the box edges then never drops a point on the rim, and the
    // order stays that of a full scan of the window.
    const double reach =
        radius + kBallSlack * (radius + cellSize_ + std::abs(center.x) + std::abs(center.y) +
                               std::abs(minX_) + std::abs(minY_));
    const double reach2 = reach * reach;
    const auto [cxLo, cyLo] = cellOf({center.x - reach, center.y - reach});
    const auto [cxHi, cyHi] = cellOf({center.x + reach, center.y + reach});
    for (long cy = cyLo; cy <= cyHi; ++cy) {
      for (long cx = cxLo; cx <= cxHi; ++cx) {
        const long cell = cellIndex(cx, cy);
        if (cell < 0 || cellDist2(cx, cy, center) > reach2) continue;
        for (std::size_t i = start_[static_cast<std::size_t>(cell)];
             i < start_[static_cast<std::size_t>(cell) + 1]; ++i) {
          const NodeId id = ids_[i];
          if (dist2(points_[static_cast<std::size_t>(id)], center) <= r2) fn(id);
        }
      }
    }
  }

  /// Calls `fn(cx, cy, ids)` once per non-empty cell, where `ids` is the
  /// span of point ids stored in cell (cx, cy).  Cells are visited in
  /// row-major order, ids within a cell in insertion (id) order.
  template <class Fn>
  void forEachCell(Fn&& fn) const {
    for (long cy = 0; cy < ny_; ++cy) {
      for (long cx = 0; cx < nx_; ++cx) {
        const auto cell = static_cast<std::size_t>(cy * nx_ + cx);
        const std::size_t lo = start_[cell];
        const std::size_t hi = start_[cell + 1];
        if (lo == hi) continue;
        fn(cx, cy, std::span<const NodeId>(ids_.data() + lo, hi - lo));
      }
    }
  }

  /// Squared distance from `p` to the closed box of cell (cx, cy);
  /// zero when `p` lies inside the cell.
  [[nodiscard]] double cellDist2(long cx, long cy, Vec2 p) const noexcept {
    const double x0 = minX_ + static_cast<double>(cx) * cellSize_;
    const double y0 = minY_ + static_cast<double>(cy) * cellSize_;
    const double dx = p.x < x0 ? x0 - p.x : (p.x > x0 + cellSize_ ? p.x - (x0 + cellSize_) : 0.0);
    const double dy = p.y < y0 ? y0 - p.y : (p.y > y0 + cellSize_ ? p.y - (y0 + cellSize_) : 0.0);
    return dx * dx + dy * dy;
  }

  /// Position of an indexed point by id.
  [[nodiscard]] Vec2 point(NodeId id) const noexcept {
    return points_[static_cast<std::size_t>(id)];
  }

  /// Flat cell index of an indexed point (row-major: cy * nx + cx).
  [[nodiscard]] long cellOfId(NodeId id) const noexcept {
    return cellOfPoint_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] double cellSize() const noexcept { return cellSize_; }

  /// Grid geometry: box origin and cell extents.  HierGrid builds its
  /// coarse pyramid levels on top of these base-level coordinates.
  [[nodiscard]] double minX() const noexcept { return minX_; }
  [[nodiscard]] double minY() const noexcept { return minY_; }
  [[nodiscard]] long nxCells() const noexcept { return nx_; }
  [[nodiscard]] long nyCells() const noexcept { return ny_; }

 private:
  /// Relative slack of forEachInBall's cell prune: far above the few ulps
  /// the box edges can be off by, far below any cell size that matters.
  static constexpr double kBallSlack = 1e-9;

  [[nodiscard]] std::pair<long, long> cellOf(Vec2 p) const noexcept;
  /// Flat cell index, or -1 when outside the indexed bounding box.
  [[nodiscard]] long cellIndex(long cx, long cy) const noexcept;

  std::vector<Vec2> points_;
  std::vector<NodeId> ids_;         // point ids sorted by cell
  std::vector<std::size_t> start_;  // CSR offsets per cell, size cells_+1
  std::vector<long> cellOfPoint_;    // cell of each point
  std::vector<std::size_t> cursor_;  // rebuild scratch
  double cellSize_ = 0.0;
  double minX_ = 0.0, minY_ = 0.0;
  long nx_ = 0, ny_ = 0;
  std::size_t cells_ = 0;
};

}  // namespace mcs
