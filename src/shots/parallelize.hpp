// Logical-shot parallelization (paper Sec. II-E): the compiled circuit is
// replicated as a square tiling across the machine's atom grid. Copies run
// the identical schedule in lockstep and *share* AOD rows/columns — a row
// holds one atom per copy in its horizontal band, and since all copies move
// identically, the tandem-movement constraint is satisfied by construction.
//
// Feasibility constraints:
//   * tile footprint:   copies_per_dim * footprint_side <= grid side
//   * AOD line budget:  copies_per_dim * aod_lines_used_per_copy <= aod rows
//     (each *band* of copies needs its own set of row coordinates; within a
//     band all copies share them; columns symmetrically).
#pragma once

#include <cstdint>
#include <vector>

#include "hardware/config.hpp"
#include "parallax/result.hpp"
#include "util/fields.hpp"

namespace parallax::shots {

struct ShotOptions {
  /// Logical shots needed for an output distribution (paper: 8,000).
  std::int64_t logical_shots = 8000;
  /// Per-physical-shot overhead (us): state preparation, readout, and atom
  /// rearrangement between hardware shots.
  double inter_shot_overhead_us = 50.0;
};

/// The one field list of ShotOptions (see util/fields.hpp).
template <util::FieldsOf<ShotOptions> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.logical_shots, o.inter_shot_overhead_us);
}

struct ParallelPlan {
  std::int32_t copies_per_dim = 1;
  std::int32_t copies = 1;              // logical shots per physical shot
  std::int64_t physical_shots = 0;      // ceil(logical / copies)
  double total_execution_time_us = 0.0; // the paper's Fig. 11 metric
};

/// The one field list of ParallelPlan (see util/fields.hpp).
template <util::FieldsOf<ParallelPlan> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.copies_per_dim, o.copies, o.physical_shots,
        o.total_execution_time_us);
}

/// Side of the compiled circuit's bounding box in grid cells (plus one cell
/// of margin so neighbouring copies keep the separation constraint).
[[nodiscard]] std::int32_t footprint_side(
    const compiler::CompileResult& result);

/// Largest feasible parallelization factor per dimension for `result` on
/// `config` (>= 1; a circuit that fills the machine gets exactly 1).
[[nodiscard]] std::int32_t max_copies_per_dim(
    const compiler::CompileResult& result,
    const hardware::HardwareConfig& config);

/// Plan for a given per-dimension factor (clamped to the feasible maximum).
[[nodiscard]] ParallelPlan plan_parallel_shots(
    const compiler::CompileResult& result,
    const hardware::HardwareConfig& config, std::int32_t copies_per_dim,
    const ShotOptions& options = {});

/// Plans for every square factor 1, 4, 9, ... up to the feasible maximum —
/// the series of the paper's Fig. 11.
[[nodiscard]] std::vector<ParallelPlan> parallelization_sweep(
    const compiler::CompileResult& result,
    const hardware::HardwareConfig& config, const ShotOptions& options = {});

}  // namespace parallax::shots
