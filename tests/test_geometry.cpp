// Geometry tests: points, cells, grids, occupancy spiral search, and the
// uniform bucket grid.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "geometry/grid.hpp"
#include "geometry/point.hpp"
#include "geometry/uniform_grid.hpp"

namespace pg = parallax::geom;

TEST(Point, Arithmetic) {
  const pg::Point a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ((a + b), (pg::Point{4.0, 1.0}));
  EXPECT_EQ((a - b), (pg::Point{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (pg::Point{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(pg::distance(a, b), std::hypot(2.0, 3.0));
  EXPECT_DOUBLE_EQ(pg::distance_sq(a, b), 13.0);
}

TEST(Cell, Distances) {
  const pg::Cell a{0, 0}, b{3, -4};
  EXPECT_EQ(pg::chebyshev(a, b), 4);
  EXPECT_EQ(pg::manhattan(a, b), 7);
  EXPECT_EQ(pg::chebyshev(a, a), 0);
}

TEST(Grid, PositionsAndBounds) {
  const pg::Grid grid(16, 5.0);
  EXPECT_EQ(grid.site_count(), 256u);
  EXPECT_DOUBLE_EQ(grid.extent(), 75.0);
  EXPECT_TRUE(grid.in_bounds({0, 0}));
  EXPECT_TRUE(grid.in_bounds({15, 15}));
  EXPECT_FALSE(grid.in_bounds({16, 0}));
  EXPECT_FALSE(grid.in_bounds({-1, 3}));
  const auto p = grid.position({2, 3});
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_DOUBLE_EQ(p.y, 15.0);
}

TEST(Grid, NearestCellClampsAndRounds) {
  const pg::Grid grid(4, 2.0);
  EXPECT_EQ(grid.nearest_cell({0.9, 1.1}), (pg::Cell{0, 1}));
  EXPECT_EQ(grid.nearest_cell({100.0, -5.0}), (pg::Cell{3, 0}));
}

TEST(Grid, RingClipsAtBoundary) {
  const pg::Grid grid(4, 1.0);
  const auto ring0 = grid.ring({0, 0}, 0);
  ASSERT_EQ(ring0.size(), 1u);
  const auto ring1 = grid.ring({0, 0}, 1);
  EXPECT_EQ(ring1.size(), 3u);  // corner: only 3 of 8 neighbours in bounds
  const auto ring_mid = grid.ring({1, 1}, 1);
  EXPECT_EQ(ring_mid.size(), 8u);
}

TEST(Occupancy, TracksCount) {
  const pg::Grid grid(3, 1.0);
  pg::Occupancy occ(grid);
  EXPECT_EQ(occ.count_occupied(), 0u);
  occ.set({1, 1}, true);
  occ.set({1, 1}, true);  // idempotent
  EXPECT_EQ(occ.count_occupied(), 1u);
  occ.set({1, 1}, false);
  EXPECT_EQ(occ.count_occupied(), 0u);
}

TEST(Occupancy, NearestFreePrefersTarget) {
  const pg::Grid grid(5, 1.0);
  pg::Occupancy occ(grid);
  EXPECT_EQ(occ.nearest_free({2, 2}), (pg::Cell{2, 2}));
}

TEST(Occupancy, NearestFreeSpiralsOut) {
  const pg::Grid grid(5, 1.0);
  pg::Occupancy occ(grid);
  occ.set({2, 2}, true);
  const auto cell = occ.nearest_free({2, 2});
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(pg::chebyshev(*cell, {2, 2}), 1);
}

TEST(Occupancy, FullGridReturnsNullopt) {
  const pg::Grid grid(2, 1.0);
  pg::Occupancy occ(grid);
  for (std::int32_t r = 0; r < 2; ++r) {
    for (std::int32_t c = 0; c < 2; ++c) occ.set({c, r}, true);
  }
  EXPECT_FALSE(occ.nearest_free({0, 0}).has_value());
}

// The bucket grid must answer exactly what a scan over every point with the
// same strict predicate answers — including points outside its square, query
// radii on and off the cell size, and cells far smaller than the field.
TEST(UniformGrid, AnyWithinMatchesAFullScan) {
  std::mt19937_64 rng(0x9e1d);
  std::uniform_real_distribution<double> coord(-20.0, 120.0);
  std::uniform_real_distribution<double> radius(0.0, 15.0);
  for (const double cell : {2.0, 7.5, 0.01, 0.0}) {
    pg::UniformGrid grid(100.0, cell);
    std::vector<pg::Point> points;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 60; ++i) {
        points.push_back({coord(rng), coord(rng)});
        grid.insert(points.back());
      }
      for (int i = 0; i < 400; ++i) {
        const pg::Point p{coord(rng), coord(rng)};
        const double r = i % 4 == 0 ? cell : radius(rng);
        bool expected = false;
        for (const pg::Point& s : points) {
          expected = expected || pg::distance(p, s) < r;
        }
        EXPECT_EQ(grid.any_within(p, r), expected)
            << "cell " << cell << " query (" << p.x << ", " << p.y
            << ") r " << r;
      }
      grid.clear();
      points.clear();
    }
  }
}

TEST(UniformGrid, PredicateIsStrict) {
  pg::UniformGrid grid(10.0, 2.0);
  grid.insert({4.0, 4.0});
  EXPECT_FALSE(grid.any_within({6.0, 4.0}, 2.0));  // exactly at the radius
  EXPECT_TRUE(grid.any_within({6.0, 4.0}, 2.0000001));
  EXPECT_FALSE(grid.any_within({4.0, 4.0}, 0.0));
  grid.clear();
  EXPECT_FALSE(grid.any_within({4.0, 4.0}, 5.0));
}
