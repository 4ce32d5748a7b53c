#include "geom/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mcs {

GridIndex::GridIndex(std::span<const Vec2> points, double cellSize) {
  rebuild(points, cellSize);
}

void GridIndex::rebuild(std::span<const Vec2> points, double cellSize) {
  assert(cellSize > 0.0);
  cellSize_ = cellSize;
  points_.assign(points.begin(), points.end());
  ids_.clear();
  start_.clear();
  minX_ = minY_ = 0.0;
  nx_ = ny_ = 0;
  cells_ = 0;
  if (points_.empty()) return;

  double maxX = points_[0].x, maxY = points_[0].y;
  minX_ = points_[0].x;
  minY_ = points_[0].y;
  for (const Vec2& p : points_) {
    minX_ = std::min(minX_, p.x);
    minY_ = std::min(minY_, p.y);
    maxX = std::max(maxX, p.x);
    maxY = std::max(maxY, p.y);
  }
  nx_ = static_cast<long>(std::floor((maxX - minX_) / cellSize_)) + 1;
  ny_ = static_cast<long>(std::floor((maxY - minY_) / cellSize_)) + 1;
  cells_ = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);

  cellOfPoint_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const long cell = cellIndex(cellOf(points_[i]).first, cellOf(points_[i]).second);
    assert(cell >= 0);
    cellOfPoint_[i] = cell;
  }
  // Counting sort of points into cells (CSR layout), preserving id order
  // per cell.
  start_.assign(cells_ + 1, 0);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    ++start_[static_cast<std::size_t>(cellOfPoint_[i]) + 1];
  }
  for (std::size_t c = 0; c < cells_; ++c) start_[c + 1] += start_[c];
  ids_.resize(points_.size());
  cursor_.assign(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    ids_[cursor_[static_cast<std::size_t>(cellOfPoint_[i])]++] = static_cast<NodeId>(i);
  }
}

std::pair<long, long> GridIndex::cellOf(Vec2 p) const noexcept {
  return {static_cast<long>(std::floor((p.x - minX_) / cellSize_)),
          static_cast<long>(std::floor((p.y - minY_) / cellSize_))};
}

long GridIndex::cellIndex(long cx, long cy) const noexcept {
  if (cx < 0 || cy < 0 || cx >= nx_ || cy >= ny_) return -1;
  return cy * nx_ + cx;
}

void GridIndex::queryBall(Vec2 center, double radius, std::vector<NodeId>& out) const {
  out.clear();
  forEachInBall(center, radius, [&](NodeId id) { out.push_back(id); });
}

std::vector<NodeId> GridIndex::ball(Vec2 center, double radius) const {
  std::vector<NodeId> out;
  queryBall(center, radius, out);
  return out;
}

}  // namespace mcs
