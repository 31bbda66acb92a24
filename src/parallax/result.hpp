// Output of a compilation: the scheduled layers, movement/trap-change
// accounting, and the runtime model's totals. Shared by Parallax and the
// baseline compilers so the bench harness can treat techniques uniformly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "placement/discretize.hpp"
#include "util/fields.hpp"

namespace parallax::compiler {

/// One hardware-executable layer: gates that run simultaneously, plus the
/// movement and trap-change activity that preceded them.
struct Layer {
  std::vector<std::size_t> gates;   // indices into `CompileResult::circuit`
  double move_distance_um = 0.0;    // max distance any atom moved (inbound)
  double return_distance_um = 0.0;  // max distance for the home-return leg
  int aod_moves = 0;                // move-into-range operations this layer
  int trap_changes = 0;             // 100 us AOD trap-change operations
  double duration_us = 0.0;         // total wall time of this layer
  /// Atom positions at gate execution time (one per logical qubit). Only
  /// populated when SchedulerOptions::record_positions is set; enables the
  /// physical-invariant validator (parallax/validate.hpp).
  std::vector<geom::Point> positions;
};

struct CompileStats {
  std::size_t u3_gates = 0;
  std::size_t cz_gates = 0;       // native CZ executions
  std::size_t swap_gates = 0;     // SWAPs inserted by routing (baselines)
  /// Paper Fig. 9 metric: CZ executions including 3 per SWAP.
  [[nodiscard]] std::size_t effective_cz() const noexcept {
    return cz_gates + 3 * swap_gates;
  }
  std::size_t layers = 0;
  std::size_t aod_moves = 0;         // move-into-range operations
  std::size_t trap_changes = 0;      // total trap-change operations
  std::size_t out_of_range_cz = 0;   // CZs that required movement or a trap
                                     // change
  std::size_t slm_slm_cz = 0;        // CZs between two SLM atoms out of range
                                     // (the paper's ~1.3% case)
  double max_move_distance_um = 0.0;
  double total_move_distance_um = 0.0;
};

/// The one field list of CompileStats (see util/fields.hpp).
template <util::FieldsOf<CompileStats> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.u3_gates, o.cz_gates, o.swap_gates, o.layers, o.aod_moves,
        o.trap_changes, o.out_of_range_cz, o.slm_slm_cz,
        o.max_move_distance_um, o.total_move_distance_um);
}

/// Wall-clock of one pipeline pass. Observational metadata: it is excluded
/// from the compilation cache's serialized payloads and from every
/// determinism guarantee.
struct PassTiming {
  std::string pass;
  double seconds = 0.0;
  /// The pass's product was served from a cache instead of computed: the
  /// sweep driver marks transpile/placement stages it satisfied from its
  /// memos or the persistent cache, and a whole-result cache hit marks
  /// every pass.
  bool cached = false;
  /// Render emphasis (e.g. the winning portfolio entrant's row); purely
  /// presentational.
  bool highlight = false;
  /// Time spent blocked on work another cell did (e.g. a sibling's
  /// in-flight anneal behind the sweep's placement memo). Not part of
  /// `seconds`, which counts only this cell's own work.
  double wait_seconds = 0.0;
};

struct CompileResult {
  std::string technique;          // "parallax", "eldi", or "graphine"
  circuit::Circuit circuit;       // the gate stream actually scheduled
  placement::PhysicalTopology topology;
  std::vector<Layer> layers;
  std::vector<std::int8_t> in_aod;  // per logical qubit, after AOD selection
  CompileStats stats;
  /// One logical shot's runtime (us) — the paper's Table IV metric.
  double runtime_us = 0.0;
  /// Per-pass compile-time profile, in pipeline order (ROADMAP: O(q^5)
  /// placement dominance without google-benchmark).
  std::vector<PassTiming> pass_timings;

  [[nodiscard]] std::size_t aod_qubit_count() const {
    std::size_t n = 0;
    for (auto f : in_aod) n += (f != 0);
    return n;
  }
};

}  // namespace parallax::compiler
