// Transpiler passes standing in for Qiskit's optimization-level-3 transpile:
// every input circuit is reduced to the {U3, CZ} basis and simplified before
// any compilation technique (Parallax, ELDI, GRAPHINE) sees it. All three
// techniques consume the same transpiled circuit, mirroring the paper's
// methodology (Sec. III, "Experimental Framework").
#pragma once

#include "circuit/circuit.hpp"
#include "util/fields.hpp"

namespace parallax::circuit {

struct TranspileOptions {
  /// Merge runs of single-qubit gates into one U3 via unitary multiplication
  /// + ZYZ re-synthesis.
  bool fuse_single_qubit = true;
  /// Cancel adjacent CZ pairs on the same qubit pair.
  bool cancel_cz_pairs = true;
  /// Drop U3 gates that are the identity up to global phase.
  bool drop_identities = true;
  /// Angle tolerance below which a fused unitary counts as identity.
  double identity_tolerance = 1e-9;
  /// Iterate passes until no pass changes the circuit.
  int max_iterations = 16;
};

/// The one field list of TranspileOptions (see util/fields.hpp).
template <util::FieldsOf<TranspileOptions> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.fuse_single_qubit, o.cancel_cz_pairs, o.drop_identities,
        o.identity_tolerance, o.max_iterations);
}

/// Runs the pass pipeline and returns the optimized circuit. Barriers and
/// measurements are preserved in place. SWAP gates (if present) are expanded
/// to 3 CX = 3 CZ + 1q gates first, so the output contains only U3/CZ/
/// measure/barrier.
[[nodiscard]] Circuit transpile(const Circuit& input,
                                const TranspileOptions& options = {});

/// Individual passes (exposed for tests). Each returns true if it changed
/// the circuit.
bool expand_swaps(Circuit& circuit);
bool fuse_single_qubit_runs(Circuit& circuit, double identity_tolerance,
                            bool drop_identities);
bool cancel_adjacent_cz(Circuit& circuit);

}  // namespace parallax::circuit
