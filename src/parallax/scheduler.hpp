// Algorithm 1 from the paper: layer-by-layer gate scheduling with AOD
// movement. Per layer it (1) collects one ready gate per qubit from the
// dependency DAG, (2) resolves out-of-range CZs — a single AOD
// move-into-range per layer, trap changes when neither endpoint is mobile or
// the move fails, ejection back to the gate pool otherwise, (3) shuffles the
// layer and ejects Rydberg-blockade conflicts, (4) executes, and (5) returns
// moved atoms to their home configuration (ablatable, Fig. 12).
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "hardware/machine.hpp"
#include "parallax/result.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"

namespace parallax::compiler {

struct SchedulerOptions {
  /// Return AOD atoms to their pre-layer positions after execution
  /// (the paper's default; disabled for the Fig. 12 ablation).
  bool return_home = true;
  /// Recursion budget for the movement engine (paper: 80).
  int max_move_iterations = 80;
  /// Seed for the layer shuffle that prevents starvation (paper line 20).
  std::uint64_t shuffle_seed = 0x5eedULL;
  /// Record atom positions at each layer's execution into Layer::positions,
  /// enabling post-hoc physical validation (parallax/validate.hpp). Off by
  /// default: it is O(layers * qubits) memory.
  bool record_positions = false;
};

/// The one field list of SchedulerOptions (see util/fields.hpp).
template <util::FieldsOf<SchedulerOptions> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.return_home, o.max_move_iterations, o.shuffle_seed,
        o.record_positions);
}

struct ScheduleOutput {
  std::vector<Layer> layers;
  CompileStats stats;
  double runtime_us = 0.0;
};

/// Schedules `circuit` on `machine` (atoms already placed, AOD selection
/// done). Mutates machine state as atoms move. The circuit must be in the
/// {U3, CZ, measure, barrier} basis — SWAPs are a baseline-only concept.
[[nodiscard]] ScheduleOutput schedule_gates(const circuit::Circuit& circuit,
                                            hardware::Machine& machine,
                                            const SchedulerOptions& options);

}  // namespace parallax::compiler
