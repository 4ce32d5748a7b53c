#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/deployment.h"
#include "geom/grid_index.h"
#include "geom/hier_grid.h"
#include "geom/vec2.h"
#include "test_support.h"
#include "util/rng.h"

namespace mcs {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -4};
  EXPECT_EQ((a + b), (Vec2{4, -2}));
  EXPECT_EQ((a - b), (Vec2{-2, 6}));
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
  EXPECT_DOUBLE_EQ(a.dot(b), 3 - 8);
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(dist({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(dist2({0, 0}, {3, 4}), 25.0);
}

class GridIndexParam : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GridIndexParam, MatchesBruteForce) {
  const auto [n, radius] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  const auto pts = deployUniformSquare(n, 2.0, rng);
  const GridIndex grid(pts, radius);
  for (int trial = 0; trial < 25; ++trial) {
    const Vec2 c{rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)};
    auto got = grid.ball(c, radius);
    std::vector<NodeId> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (dist(pts[i], c) <= radius) want.push_back(static_cast<NodeId>(i));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridIndexParam,
                         ::testing::Combine(::testing::Values(1, 17, 200, 1000),
                                            ::testing::Values(0.05, 0.3, 1.0)));

TEST(GridIndex, BallQueryMatchesBruteForceInScanOrder) {
  // forEachInBall skips window cells whose box misses the ball.  The
  // result must still be exactly the brute-force set, in the unpruned
  // scan's order: cells row-major, ids ascending within a cell.  The
  // cases put points exactly on the rim and on cell edges, far from the
  // origin (where the box edges round), and query again after the
  // uniform points drift and the index is rebuilt.
  const auto check = [](const GridIndex& grid, std::span<const Vec2> pts, Vec2 c, double r) {
    std::vector<NodeId> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (dist2(pts[i], c) <= r * r) want.push_back(static_cast<NodeId>(i));
    }
    std::stable_sort(want.begin(), want.end(), [&](NodeId a, NodeId b) {
      return grid.cellOfId(a) < grid.cellOfId(b);
    });
    ASSERT_EQ(grid.ball(c, r), want) << "center (" << c.x << ", " << c.y << ") r " << r;
  };
  Rng rng(77);
  std::size_t hits = 0;
  for (const double offset : {0.0, -3.7, 1e6, -2.5e7}) {
    for (const double cellSize : {0.07, 0.3, 1.0}) {
      // A lattice on cell edges plus uniform points.
      std::vector<Vec2> pts;
      for (int i = 0; i <= 12; ++i) {
        for (int j = 0; j <= 12; ++j) {
          pts.push_back({offset + i * 0.25, offset + j * 0.25});
        }
      }
      const std::size_t fixed = pts.size();
      for (int i = 0; i < 300; ++i) {
        pts.push_back({offset + rng.uniform(0.0, 3.0), offset + rng.uniform(0.0, 3.0)});
      }
      // Points a few ulps either side of computed cell edges (the box
      // origin is the lattice corner `offset`): the floor() that assigns
      // them a cell and the edge that bounds its box can disagree here.
      const auto edges = static_cast<std::uint64_t>(2.9 / cellSize);
      const auto nearEdge = [&] {
        double x = offset + static_cast<double>(1 + rng.below(edges)) * cellSize;
        for (int k = static_cast<int>(rng.below(7)) - 3; k != 0; k += k > 0 ? -1 : 1) {
          x = std::nextafter(x, k > 0 ? 1e300 : -1e300);
        }
        return x;
      };
      const std::size_t edgeBegin = pts.size();
      for (int i = 0; i < 300; ++i) pts.push_back({nearEdge(), nearEdge()});
      GridIndex grid(pts, cellSize);
      for (int step = 0; step < 3; ++step) {
        for (std::size_t i = edgeBegin; i < pts.size(); ++i) {
          check(grid, pts, pts[i], 0.0);
          const Vec2& a = pts[rng.below(pts.size())];
          check(grid, pts, a, std::sqrt(dist2(a, pts[i])));
        }
        for (int q = 0; q < 40; ++q) {
          const Vec2& a = pts[rng.below(pts.size())];
          const Vec2& b = pts[rng.below(pts.size())];
          // Centered on a point with the rim through another; zero radius.
          check(grid, pts, a, std::sqrt(dist2(a, b)));
          check(grid, pts, a, 0.0);
          const Vec2 c{offset + rng.uniform(-0.5, 3.5), offset + rng.uniform(-0.5, 3.5)};
          check(grid, pts, c, rng.uniform(0.0, 1.5));
          hits += grid.ball(a, std::sqrt(dist2(a, b))).size();
        }
        // Drift inside the lattice's box keeps the geometry, so the
        // near-edge points stay near edges after the rebuild.
        for (std::size_t i = fixed; i < edgeBegin; ++i) {
          pts[i] = {std::clamp(pts[i].x + rng.uniform(-0.1, 0.1), offset, offset + 3.0),
                    std::clamp(pts[i].y + rng.uniform(-0.1, 0.1), offset, offset + 3.0)};
        }
        grid.rebuild(pts, cellSize);
      }
    }
  }
  EXPECT_GT(hits, 10000u);
}

TEST(GridIndex, EmptyInput) {
  const GridIndex grid(std::vector<Vec2>{}, 1.0);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.ball({0, 0}, 10.0).empty());
}

TEST(GridIndex, QueryOutsideBounds) {
  const std::vector<Vec2> pts{{0, 0}, {1, 1}};
  const GridIndex grid(pts, 0.5);
  EXPECT_TRUE(grid.ball({100, 100}, 0.4).empty());
  EXPECT_EQ(grid.ball({100, 100}, 200.0).size(), 2u);
}

// ---------------------------------------------------------------------------
// HierGrid: the far-field pyramid
// ---------------------------------------------------------------------------

/// Builds a HierGrid over the occupied cells of a GridIndex, mirroring
/// how Medium::buildFields feeds it (cell sums + a ref per base cell).
HierGrid buildHier(const GridIndex& grid, std::vector<std::span<const NodeId>>& cellIds,
                   double nearRadius, double theta) {
  std::vector<HierBaseCell> base;
  cellIds.clear();
  grid.forEachCell([&](long cx, long cy, std::span<const NodeId> ids) {
    Vec2 sum{};
    for (const NodeId id : ids) sum = sum + grid.point(id);
    base.push_back({cx, cy, sum.x, sum.y, static_cast<std::int64_t>(ids.size()),
                    static_cast<std::int32_t>(cellIds.size())});
    cellIds.push_back(ids);
  });
  HierGrid hier;
  hier.build(grid.minX(), grid.minY(), grid.cellSize(), grid.nxCells(), grid.nyCells(), base,
             nearRadius, theta);
  return hier;
}

TEST(HierGrid, EveryPointSurfacesExactlyOnce) {
  // Conservation: for any query point, the counts reported by far()
  // batches plus the members of near() cells partition the point set.
  Rng rng(5);
  const int n = 500;
  const std::vector<Vec2> pts = deployUniformSquare(n, 6.0, rng);
  const GridIndex grid(pts, 0.5);
  std::vector<std::span<const NodeId>> cellIds;
  const HierGrid hier = buildHier(grid, cellIds, 1.0, 0.5);
  EXPECT_EQ(hier.totalCount(), n);
  EXPECT_GT(hier.levels(), 2);

  for (int q = 0; q < 30; ++q) {
    const Vec2 p{rng.uniform(-1.0, 7.0), rng.uniform(-1.0, 7.0)};
    std::int64_t farCount = 0;
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    hier.forEachField(
        p, [&](std::int64_t count, Vec2, int, long, long) { farCount += count; },
        [&](std::int32_t ref) {
          for (const NodeId id : cellIds[static_cast<std::size_t>(ref)]) {
            ASSERT_EQ(seen[static_cast<std::size_t>(id)], 0) << "duplicate near member";
            seen[static_cast<std::size_t>(id)] = 1;
          }
        });
    std::int64_t nearCount = 0;
    for (const char s : seen) nearCount += s;
    EXPECT_EQ(farCount + nearCount, n) << "query " << q;
  }
}

TEST(HierGrid, NearBallAlwaysResolvesExactly) {
  // No admissible (batched) cell may contain a point within the near
  // radius of the query — the guarantee that every decodable transmitter
  // reaches the exact summation path in Medium.
  Rng rng(9);
  const int n = 400;
  const std::vector<Vec2> pts = deployUniformSquare(n, 5.0, rng);
  const GridIndex grid(pts, 0.5);
  std::vector<std::span<const NodeId>> cellIds;
  const double nearRadius = 1.0;
  const HierGrid hier = buildHier(grid, cellIds, nearRadius, 0.5);

  for (int q = 0; q < 30; ++q) {
    const Vec2 p{rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)};
    std::vector<char> nearMember(static_cast<std::size_t>(n), 0);
    hier.forEachField(
        p, [&](std::int64_t, Vec2, int, long, long) {},
        [&](std::int32_t ref) {
          for (const NodeId id : cellIds[static_cast<std::size_t>(ref)]) {
            nearMember[static_cast<std::size_t>(id)] = 1;
          }
        });
    for (int id = 0; id < n; ++id) {
      if (dist2(pts[static_cast<std::size_t>(id)], p) <= nearRadius * nearRadius) {
        EXPECT_TRUE(nearMember[static_cast<std::size_t>(id)])
            << "point " << id << " inside the near ball was batched";
      }
    }
  }
}

TEST(HierGrid, AdmissibleBatchesRespectTheThetaRule) {
  // Every far() callback must satisfy the admissibility inequality:
  // the emitting cell's side over its box distance is at most theta.
  Rng rng(31);
  const std::vector<Vec2> pts = deployUniformSquare(600, 8.0, rng);
  const GridIndex grid(pts, 0.5);
  std::vector<std::span<const NodeId>> cellIds;

  for (const double theta : {0.25, 0.5, 1.0}) {
    const HierGrid hier = buildHier(grid, cellIds, 1.0, theta);
    const Vec2 p{4.0, 4.0};
    hier.forEachField(
        p,
        [&](std::int64_t count, Vec2 centroid, int level, long, long) {
          ASSERT_GT(count, 0);
          const double cellSide = grid.cellSize() * std::pow(2.0, level);
          const double d = std::sqrt(dist2(centroid, p));
          // The box distance is <= the centroid distance, so this is a
          // weaker-but-sufficient check of side <= theta * boxDist:
          // side / theta <= boxDist <= d + diagonal slack.
          EXPECT_LE(cellSide / theta, d + cellSide * std::sqrt(2.0))
              << "level " << level << " theta " << theta;
        },
        [](std::int32_t) {});
  }
}

TEST(HierGrid, EmptyAndSingleCellInputs) {
  HierGrid hier;
  hier.build(0.0, 0.0, 1.0, 0, 0, {}, 1.0, 0.5);
  EXPECT_TRUE(hier.empty());
  int visits = 0;
  hier.forEachField(
      {0, 0}, [&](std::int64_t, Vec2, int, long, long) { ++visits; },
      [&](std::int32_t) { ++visits; });
  EXPECT_EQ(visits, 0);

  const std::vector<HierBaseCell> one{{0, 0, 0.5, 0.5, 1, 0}};
  hier.build(0.0, 0.0, 1.0, 1, 1, one, 1.0, 0.5);
  EXPECT_FALSE(hier.empty());
  EXPECT_EQ(hier.levels(), 1);
  EXPECT_EQ(hier.totalCount(), 1);
  // Far query: the single cell batches.
  Vec2 gotCentroid{};
  hier.forEachField(
      {100.0, 0.0},
      [&](std::int64_t count, Vec2 centroid, int, long, long) {
        EXPECT_EQ(count, 1);
        gotCentroid = centroid;
        ++visits;
      },
      [&](std::int32_t) { FAIL() << "distant cell must batch"; });
  EXPECT_EQ(visits, 1);
  EXPECT_DOUBLE_EQ(gotCentroid.x, 0.5);
  // Near query: the same cell resolves exactly.
  hier.forEachField(
      {0.5, 0.5},
      [](std::int64_t, Vec2, int, long, long) { FAIL() << "touching cell must open"; },
      [&](std::int32_t ref) { EXPECT_EQ(ref, 0); });
}

/// One forEachField callback, with every argument it carried (centroid
/// as bit patterns, so the comparison is exact).
struct FieldEvent {
  bool far = false;
  int level = 0;
  long cx = 0, cy = 0;
  std::int32_t ref = -1;
  std::int64_t count = 0;
  std::uint64_t centroidX = 0, centroidY = 0;
  bool operator==(const FieldEvent&) const = default;
};

/// Reference traversal: the dense pyramid plus the explicit-stack DFS
/// that HierGrid::forEachField replaced, kept verbatim as the oracle for
/// the order (and values) of the callbacks.
std::vector<FieldEvent> referenceWalk(double minX, double minY, double cellSize, long nx,
                                      long ny, std::span<const HierBaseCell> base, Vec2 p,
                                      double nearRadius, double theta) {
  struct Level {
    long nx, ny;
    double cellSize;
    std::vector<std::int64_t> count;
    std::vector<double> sumX, sumY;
  };
  std::vector<Level> levels;
  for (long w = nx, h = ny, k = 0;; ++k) {
    const auto cells = static_cast<std::size_t>(w * h);
    levels.push_back({w, h, cellSize * std::pow(2.0, static_cast<double>(k)),
                      std::vector<std::int64_t>(cells, 0), std::vector<double>(cells, 0.0),
                      std::vector<double>(cells, 0.0)});
    if (w == 1 && h == 1) break;
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
  std::vector<std::int32_t> ref(static_cast<std::size_t>(nx * ny), -1);
  for (const HierBaseCell& c : base) {
    const auto idx = static_cast<std::size_t>(c.cy * nx + c.cx);
    levels[0].count[idx] = c.count;
    levels[0].sumX[idx] = c.sumX;
    levels[0].sumY[idx] = c.sumY;
    ref[idx] = c.ref;
  }
  for (std::size_t k = 1; k < levels.size(); ++k) {
    const Level& child = levels[k - 1];
    Level& parent = levels[k];
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
  const auto boxDist2 = [&](long cx, long cy, double size) {
    const double x0 = minX + static_cast<double>(cx) * size;
    const double y0 = minY + static_cast<double>(cy) * size;
    const double dx = p.x < x0 ? x0 - p.x : (p.x > x0 + size ? p.x - (x0 + size) : 0.0);
    const double dy = p.y < y0 ? y0 - p.y : (p.y > y0 + size ? p.y - (y0 + size) : 0.0);
    return dx * dx + dy * dy;
  };

  std::vector<FieldEvent> events;
  struct Frame {
    int level;
    long cx, cy;
  };
  std::vector<Frame> stack{{static_cast<int>(levels.size()) - 1, 0, 0}};
  while (!stack.empty()) {
    const Frame fr = stack.back();
    stack.pop_back();
    const Level& L = levels[static_cast<std::size_t>(fr.level)];
    const auto idx = static_cast<std::size_t>(fr.cy * L.nx + fr.cx);
    const std::int64_t cnt = L.count[idx];
    if (cnt == 0) continue;
    const double t = std::max(nearRadius, L.cellSize / theta);
    if (boxDist2(fr.cx, fr.cy, L.cellSize) > t * t) {
      const double inv = 1.0 / static_cast<double>(cnt);
      events.push_back({true, fr.level, fr.cx, fr.cy, -1, cnt, test::bits(L.sumX[idx] * inv),
                        test::bits(L.sumY[idx] * inv)});
      continue;
    }
    if (fr.level == 0) {
      events.push_back({false, 0, 0, 0, ref[idx], 0, 0, 0});
      continue;
    }
    const Level& C = levels[static_cast<std::size_t>(fr.level - 1)];
    for (long dy = 1; dy >= 0; --dy) {
      for (long dx = 1; dx >= 0; --dx) {
        const long ccx = fr.cx * 2 + dx;
        const long ccy = fr.cy * 2 + dy;
        if (ccx >= C.nx || ccy >= C.ny) continue;
        stack.push_back({fr.level - 1, ccx, ccy});
      }
    }
  }
  return events;
}

std::vector<FieldEvent> recordWalk(const HierGrid& hier, Vec2 p) {
  std::vector<FieldEvent> events;
  hier.forEachField(
      p,
      [&](std::int64_t count, Vec2 centroid, int level, long cx, long cy) {
        events.push_back(
            {true, level, cx, cy, -1, count, test::bits(centroid.x), test::bits(centroid.y)});
      },
      [&](std::int32_t ref) { events.push_back({false, 0, 0, 0, ref, 0, 0, 0}); });
  return events;
}

/// Random occupied base cells in row-major order (the order Medium's
/// field builds produce), each with 1..4 members inside its box.
std::vector<HierBaseCell> randomBase(Rng& rng, double minX, double minY, double cellSize,
                                     long nx, long ny, double occupancy) {
  std::vector<HierBaseCell> base;
  for (long cy = 0; cy < ny; ++cy) {
    for (long cx = 0; cx < nx; ++cx) {
      if (!rng.bernoulli(occupancy)) continue;
      HierBaseCell c{cx, cy, 0.0, 0.0, 0, static_cast<std::int32_t>(base.size())};
      c.count = 1 + static_cast<std::int64_t>(rng.below(4));
      for (std::int64_t i = 0; i < c.count; ++i) {
        c.sumX += minX + (static_cast<double>(cx) + rng.uniform()) * cellSize;
        c.sumY += minY + (static_cast<double>(cy) + rng.uniform()) * cellSize;
      }
      base.push_back(c);
    }
  }
  return base;
}

TEST(HierGrid, WalkMatchesReferenceDfsOrder) {
  // The far-field walk's callback sequence is part of Medium's
  // bit-identity contract (it fixes the summation order), so it must
  // match the explicit-stack DFS exactly: same far/near kind, level,
  // coordinates, ref, count and centroid bits, in the same order.
  Rng rng(2024);
  HierGrid hier;  // reused across builds, as Medium reuses its pyramids
  int pyramids = 0;
  std::size_t farEvents = 0, nearEvents = 0;
  for (const long nx : {1L, 2L, 5L, 9L, 16L}) {
    for (const long ny : {1L, 3L, 7L, 12L}) {
      for (const double occupancy : {0.15, 0.6, 1.0}) {
        const double cellSize = 0.25 + rng.uniform();
        const double minX = rng.uniform(-3.0, 3.0);
        const double minY = rng.uniform(-3.0, 3.0);
        const std::vector<HierBaseCell> base =
            randomBase(rng, minX, minY, cellSize, nx, ny, occupancy);
        ++pyramids;
        for (const double theta : {0.2, 0.5, 0.8, 1.0}) {
          for (const double nearRadius : {0.0, 0.7 * cellSize, 2.0 * cellSize}) {
            hier.build(minX, minY, cellSize, nx, ny, base, nearRadius, theta);
            ASSERT_EQ(hier.empty(), base.empty());
            for (int q = 0; q < 12; ++q) {
              // Queries inside, on the edge of, and well outside the box.
              const Vec2 p{minX + rng.uniform(-0.5, 1.5) * cellSize * static_cast<double>(nx),
                           minY + rng.uniform(-0.5, 1.5) * cellSize * static_cast<double>(ny)};
              const auto want =
                  referenceWalk(minX, minY, cellSize, nx, ny, base, p, nearRadius, theta);
              const auto got = recordWalk(hier, p);
              ASSERT_EQ(got, want) << "nx " << nx << " ny " << ny << " occupancy "
                                   << occupancy << " theta " << theta << " near "
                                   << nearRadius << " query " << q;
              for (const FieldEvent& e : got) (e.far ? farEvents : nearEvents) += 1;
            }
          }
        }
        // NearFar's walk: one level, theta = infinity.  It must be the
        // row-major cell loop that batches every cell beyond nearRadius.
        const double nearRadius = 2.0 * cellSize;
        hier.build(minX, minY, cellSize, nx, ny, base, nearRadius,
                   std::numeric_limits<double>::infinity(), 1);
        for (int q = 0; q < 12; ++q) {
          const Vec2 p{minX + rng.uniform(-0.5, 1.5) * cellSize * static_cast<double>(nx),
                       minY + rng.uniform(-0.5, 1.5) * cellSize * static_cast<double>(ny)};
          std::vector<FieldEvent> want;
          for (const HierBaseCell& c : base) {
            const double x0 = minX + static_cast<double>(c.cx) * cellSize;
            const double y0 = minY + static_cast<double>(c.cy) * cellSize;
            const double dx =
                p.x < x0 ? x0 - p.x : (p.x > x0 + cellSize ? p.x - (x0 + cellSize) : 0.0);
            const double dy =
                p.y < y0 ? y0 - p.y : (p.y > y0 + cellSize ? p.y - (y0 + cellSize) : 0.0);
            if (dx * dx + dy * dy > nearRadius * nearRadius) {
              const Vec2 centroid = Vec2{c.sumX, c.sumY} * (1.0 / static_cast<double>(c.count));
              want.push_back({true, 0, c.cx, c.cy, -1, c.count, test::bits(centroid.x),
                              test::bits(centroid.y)});
            } else {
              want.push_back({false, 0, 0, 0, c.ref, 0, 0, 0});
            }
          }
          ASSERT_EQ(recordWalk(hier, p), want) << "one level, nx " << nx << " ny " << ny;
        }
      }
    }
  }
  EXPECT_EQ(pyramids, 60);
  // Both callback kinds were exercised, not just one.
  EXPECT_GT(farEvents, 1000u);
  EXPECT_GT(nearEvents, 1000u);
}

TEST(Deploy, UniformSquareBounds) {
  Rng rng(1);
  const auto pts = deployUniformSquare(500, 3.0, rng);
  EXPECT_EQ(pts.size(), 500u);
  for (const Vec2& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 3.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 3.0);
  }
}

TEST(Deploy, UniformDiskBounds) {
  Rng rng(2);
  const auto pts = deployUniformDisk(500, 2.0, rng);
  for (const Vec2& p : pts) EXPECT_LE(p.norm(), 2.0 + 1e-12);
}

TEST(Deploy, UniformDiskRadialDistribution) {
  Rng rng(3);
  const auto pts = deployUniformDisk(20000, 1.0, rng);
  // Uniform over area: P(r <= 1/2) = 1/4.
  int inner = 0;
  for (const Vec2& p : pts) inner += p.norm() <= 0.5;
  EXPECT_NEAR(static_cast<double>(inner) / pts.size(), 0.25, 0.02);
}

TEST(Deploy, PerturbedGridCount) {
  Rng rng(4);
  const auto pts = deployPerturbedGrid(300, 2.0, 0.3, rng);
  EXPECT_EQ(pts.size(), 300u);
}

TEST(Deploy, ClusteredAroundCenters) {
  Rng rng(5);
  const auto pts = deployClustered(1000, 5, 10.0, 0.1, rng);
  EXPECT_EQ(pts.size(), 1000u);
}

TEST(Deploy, CorridorBounds) {
  Rng rng(6);
  const auto pts = deployCorridor(200, 8.0, 0.5, rng);
  for (const Vec2& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 8.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 0.5);
  }
}

TEST(Deploy, ExponentialChainGapsGrow) {
  const auto pts = deployExponentialChain(10, 2.0, 0.4);
  ASSERT_EQ(pts.size(), 10u);
  double prevGap = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double gap = pts[i].x - pts[i - 1].x;
    EXPECT_GT(gap, prevGap);
    prevGap = gap;
  }
  // Largest gap normalized to maxGap.
  EXPECT_NEAR(pts[9].x - pts[8].x, 0.4, 1e-12);
  for (const Vec2& p : pts) EXPECT_EQ(p.y, 0.0);
}

TEST(Deploy, ExponentialChainBaseControlsRatio) {
  const auto pts = deployExponentialChain(6, 3.0, 1.0);
  for (std::size_t i = 2; i < pts.size(); ++i) {
    const double g1 = pts[i].x - pts[i - 1].x;
    const double g0 = pts[i - 1].x - pts[i - 2].x;
    EXPECT_NEAR(g1 / g0, 3.0, 1e-9);
  }
}

TEST(Deploy, DedupePositions) {
  Rng rng(7);
  std::vector<Vec2> pts{{0, 0}, {0, 0}, {0, 0}, {1, 1}};
  const auto fixed = dedupePositions(pts, 1e-6, rng);
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    for (std::size_t j = i + 1; j < fixed.size(); ++j) {
      EXPECT_GT(dist(fixed[i], fixed[j]), 0.0);
    }
  }
}

}  // namespace
}  // namespace mcs
