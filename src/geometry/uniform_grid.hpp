// Uniform bucket grid over points in the plane, for "is any point closer
// than r" queries. Points hash to square cells; a query walks only the cells
// overlapping its radius, so it costs O(points nearby) instead of a scan
// over every point. The scheduler keeps two: the static (SLM) atoms, probed
// for every movement target, and the CZ endpoints already accepted into a
// layer, probed by the blockade filter.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/point.hpp"

namespace parallax::geom {

class UniformGrid {
 public:
  /// Cells of side >= `cell_um` tiling the square [0, extent_um]^2. Points
  /// outside it land in the border cells, so every point stays findable;
  /// the cell side grows as needed to keep the table small.
  UniformGrid(double extent_um, double cell_um);

  void insert(Point p);
  /// Removes every point, touching only the cells that hold one.
  void clear();

  /// Whether some stored point s has distance(p, s) < radius: the exact
  /// predicate, evaluated on every point whose cell the radius reaches.
  [[nodiscard]] bool any_within(Point p, double radius) const;

 private:
  struct Entry {
    Point point;
    std::int32_t next = -1;  // next entry in the same cell, -1 ends it
    std::int32_t cell = 0;
  };

  [[nodiscard]] std::int32_t axis_cell(double v) const noexcept;

  std::int32_t side_ = 1;
  double inv_cell_ = 1.0;
  std::vector<std::int32_t> head_;  // per cell: first entry, -1 when empty
  std::vector<Entry> entries_;
};

}  // namespace parallax::geom
