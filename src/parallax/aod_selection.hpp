// Step 3 of the Parallax pipeline (paper Sec. II-C): choose which atoms go
// into the AOD. Each atom is scored
//     0.99 * (# out-of-interaction-radius 2q interactions, normalized)
//   + 0.01 * (blockade-serialization caused in ASAP layers, normalized)
// and the highest-weight atoms are selected greedily until every
// out-of-range interaction has at least one mobile endpoint (or AOD
// capacity runs out). Selected atoms are lifted into AOD row/column pairs —
// one atom per pair — with the paper's recursive nudge resolving shared
// row/column coordinates.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/machine.hpp"
#include "util/fields.hpp"

namespace parallax::compiler {

struct AodSelectionOptions {
  /// Criterion weights (paper Sec. II-C: 0.99 out-of-range, 0.01 blockade
  /// serialization). Exposed for the design-choice ablation bench.
  double out_of_range_weight = 0.99;
  double interference_weight = 0.01;
};

/// The one field list of AodSelectionOptions (see util/fields.hpp).
template <util::FieldsOf<AodSelectionOptions> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.out_of_range_weight, o.interference_weight);
}

struct AodSelectionResult {
  std::vector<std::int8_t> in_aod;      // per logical qubit
  std::vector<double> weights;          // diagnostic: selection score
  std::size_t out_of_range_pairs = 0;   // distinct pairs beyond the radius
  std::size_t uncovered_pairs = 0;      // pairs left with no AOD endpoint
};

/// Scores and lifts atoms. Mutates `machine` (atoms move from SLM traps to
/// AOD lines, possibly nudged to resolve shared coordinates).
[[nodiscard]] AodSelectionResult select_aod_qubits(
    const circuit::Circuit& circuit, hardware::Machine& machine,
    const AodSelectionOptions& options = {});

}  // namespace parallax::compiler
