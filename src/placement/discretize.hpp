// Step 2 of the Parallax pipeline: discretize the annealed [0,1]^2 placement
// onto the machine's site grid (pitch = 2 * min separation + padding).
// After snapping, the interaction radius is recomputed on the *physical*
// positions as the bottleneck connectivity radius, so the in-range graph is
// guaranteed connected for every technique that routes on it.
#pragma once

#include <vector>

#include "geometry/grid.hpp"
#include "hardware/config.hpp"
#include "placement/graphine.hpp"

namespace parallax::placement {

struct PhysicalTopology {
  geom::Grid grid{1, 1.0};
  /// Site of each logical qubit (all distinct).
  std::vector<geom::Cell> sites;
  /// Rydberg interaction radius (um), >= one grid pitch.
  double interaction_radius_um = 0.0;
  /// Rydberg blockade radius: 2.5x the interaction radius (paper Sec. I-A).
  double blockade_radius_um = 0.0;

  [[nodiscard]] geom::Point position(std::int32_t qubit) const {
    return grid.position(sites[static_cast<std::size_t>(qubit)]);
  }
};

struct DiscretizeOptions {
  /// The circuit is laid out inside a square sub-region of
  /// ceil(sqrt(n_qubits) * spread_factor) sites per side (clamped to the
  /// machine). A small circuit thus keeps a compact footprint — the
  /// precondition for replicating logical shots side by side (paper
  /// Sec. II-E) — while large circuits use the whole machine. On a larger
  /// machine the same circuit gets more room, which is exactly the paper's
  /// explanation of why topologies improve from 256 to 1,225 atoms.
  double spread_factor = 2.0;
};

/// The one field list of DiscretizeOptions (see util/fields.hpp).
template <util::FieldsOf<DiscretizeOptions> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.spread_factor);
}

/// Snaps every qubit of `topology` onto a free site of the machine grid,
/// nearest-first (ties broken toward smaller snapping distortion). Throws
/// std::runtime_error if the circuit has more qubits than the machine has
/// sites.
[[nodiscard]] PhysicalTopology discretize(
    const Topology& topology, const hardware::HardwareConfig& config,
    const DiscretizeOptions& options = {});

}  // namespace parallax::placement
