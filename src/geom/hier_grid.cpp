#include "geom/hier_grid.h"

#include <cassert>
#include <limits>

namespace mcs {

void HierGrid::build(double minX, double minY, double cellSize, long nx, long ny,
                     std::span<const HierBaseCell> base, double nearRadius, double theta,
                     int maxLevels) {
  clear();
  if (base.empty() || nx <= 0 || ny <= 0 || cellSize <= 0.0 || maxLevels < 1) return;
  minX_ = minX;
  minY_ = minY;

  // Each level halves the previous one's resolution, until a single root
  // cell covers everything or maxLevels levels exist.  Level vectors past
  // numLevels_ keep their capacity for later builds, and assign() reuses
  // the live ones' storage.
  long w = nx, h = ny;
  double s = cellSize;
  for (;;) {
    assert(numLevels_ < kMaxLevels);
    if (levels_.size() == static_cast<std::size_t>(numLevels_)) levels_.emplace_back();
    Level& L = levels_[static_cast<std::size_t>(numLevels_)];
    L.nx = w;
    L.ny = h;
    const auto cells = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    L.count.assign(cells, 0);
    L.sumX.assign(cells, 0.0);
    L.sumY.assign(cells, 0.0);
    const double t = std::max(nearRadius, s / theta);
    cellSize_[numLevels_] = s;
    thr2_[numLevels_] = t * t;
    if (++numLevels_ == maxLevels || (w == 1 && h == 1)) break;
    w = (w + 1) / 2;
    h = (h + 1) / 2;
    s *= 2.0;
  }

  // Scatter the occupied base cells, then aggregate child -> parent.
  Level& L0 = levels_.front();
  ref_.assign(L0.count.size(), -1);
  for (const HierBaseCell& c : base) {
    assert(c.cx >= 0 && c.cx < L0.nx && c.cy >= 0 && c.cy < L0.ny);
    assert(c.count > 0);
    const auto idx = static_cast<std::size_t>(c.cy * L0.nx + c.cx);
    L0.count[idx] = c.count;
    L0.sumX[idx] = c.sumX;
    L0.sumY[idx] = c.sumY;
    ref_[idx] = c.ref;
    total_ += c.count;
  }
  for (int k = 1; k < numLevels_; ++k) {
    const Level& child = levels_[static_cast<std::size_t>(k - 1)];
    Level& parent = levels_[static_cast<std::size_t>(k)];
    for (long cy = 0; cy < child.ny; ++cy) {
      for (long cx = 0; cx < child.nx; ++cx) {
        const auto ci = static_cast<std::size_t>(cy * child.nx + cx);
        if (child.count[ci] == 0) continue;
        const auto pi = static_cast<std::size_t>((cy / 2) * parent.nx + cx / 2);
        parent.count[pi] += child.count[ci];
        parent.sumX[pi] += child.sumX[ci];
        parent.sumY[pi] += child.sumY[ci];
      }
    }
  }

  // Flatten into the walk: top-level cells row-major, each followed by
  // its occupied subtree.
  const int top = numLevels_ - 1;
  const Level& T = levels_[static_cast<std::size_t>(top)];
  for (long cy = 0; cy < T.ny; ++cy) {
    for (long cx = 0; cx < T.nx; ++cx) emit(top, cx, cy);
  }
  assert(boxes_.size() <= std::numeric_limits<std::uint32_t>::max());
}

void HierGrid::emit(int level, long cx, long cy) {
  const Level& L = levels_[static_cast<std::size_t>(level)];
  const auto idx = static_cast<std::size_t>(cy * L.nx + cx);
  const std::int64_t cnt = L.count[idx];
  if (cnt == 0) return;
  const double size = cellSize_[level];
  const double x0 = minX_ + static_cast<double>(cx) * size;
  const double y0 = minY_ + static_cast<double>(cy) * size;
  const double inv = 1.0 / static_cast<double>(cnt);
  const std::size_t self = boxes_.size();
  boxes_.push_back(
      {x0, y0, x0 + size, y0 + size, thr2_[level], level, 0, level == 0 ? ref_[idx] : -1});
  cells_.push_back({Vec2{L.sumX[idx] * inv, L.sumY[idx] * inv}, cnt, cx, cy});
  if (level > 0) {
    const Level& C = levels_[static_cast<std::size_t>(level - 1)];
    for (long dy = 0; dy <= 1; ++dy) {
      for (long dx = 0; dx <= 1; ++dx) {
        const long ccx = cx * 2 + dx;
        const long ccy = cy * 2 + dy;
        if (ccx < C.nx && ccy < C.ny) emit(level - 1, ccx, ccy);
      }
    }
  }
  boxes_[self].skip = static_cast<std::uint32_t>(boxes_.size());
}

}  // namespace mcs
