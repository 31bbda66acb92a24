#include "geometry/uniform_grid.hpp"

#include <algorithm>
#include <cmath>

namespace parallax::geom {

namespace {
/// Cap on cells per side: a tiny cell over a wide field would otherwise
/// allocate a huge, mostly empty table.
constexpr std::int32_t kMaxSide = 256;
}  // namespace

UniformGrid::UniformGrid(double extent_um, double cell_um) {
  const double extent = std::max(extent_um, 0.0);
  double cell = cell_um;
  if (!(cell > 0.0) || extent / cell >= kMaxSide - 1) {
    cell = std::max(extent / (kMaxSide - 1), 1.0);
  }
  side_ = static_cast<std::int32_t>(std::floor(extent / cell)) + 1;
  inv_cell_ = 1.0 / cell;
  const auto side = static_cast<std::size_t>(side_);
  head_.assign(side * side, -1);
}

std::int32_t UniformGrid::axis_cell(double v) const noexcept {
  // Monotone in v, so a query box's cell range covers every point in it.
  const double c = std::floor(v * inv_cell_);
  return static_cast<std::int32_t>(
      std::clamp(c, 0.0, static_cast<double>(side_ - 1)));
}

void UniformGrid::insert(Point p) {
  const std::int32_t cell = axis_cell(p.y) * side_ + axis_cell(p.x);
  auto& head = head_[static_cast<std::size_t>(cell)];
  entries_.push_back({p, head, cell});
  head = static_cast<std::int32_t>(entries_.size() - 1);
}

void UniformGrid::clear() {
  for (const Entry& e : entries_) head_[static_cast<std::size_t>(e.cell)] = -1;
  entries_.clear();
}

bool UniformGrid::any_within(Point p, double radius) const {
  if (!(radius > 0.0) || entries_.empty()) return false;
  // Widen the box past the radius by far more than the rounding in
  // distance(), so no point the exact predicate accepts is left unvisited.
  const double reach =
      radius + 1e-9 * (1.0 + radius + std::abs(p.x) + std::abs(p.y));
  const std::int32_t x0 = axis_cell(p.x - reach);
  const std::int32_t x1 = axis_cell(p.x + reach);
  const std::int32_t y0 = axis_cell(p.y - reach);
  const std::int32_t y1 = axis_cell(p.y + reach);
  for (std::int32_t cy = y0; cy <= y1; ++cy) {
    for (std::int32_t cx = x0; cx <= x1; ++cx) {
      for (std::int32_t e = head_[static_cast<std::size_t>(cy * side_ + cx)];
           e >= 0; e = entries_[static_cast<std::size_t>(e)].next) {
        if (distance(p, entries_[static_cast<std::size_t>(e)].point) <
            radius) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace parallax::geom
