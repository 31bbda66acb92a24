// Success-probability estimation (paper Sec. III, "Evaluation Metrics"):
// the probability that one logical shot produces the correct output, taken
// as the product of all component fidelities (VERITAS-style) combined with
// exponential decoherence decay over the circuit runtime.
//
// Calibration notes (validated against the paper's Fig. 10 values): the
// plotted numbers are dominated by the CZ-gate error product — e.g. WST with
// 52 CZs gives 0.9952^52 ~ 0.78 vs the paper's 0.77, TFIM with 2,540 CZs
// gives ~5e-6 vs the paper's ~3e-6. Readout and background atom loss are
// identical across techniques (the paper replenishes lost atoms between
// shots) and are excluded from the default, as the paper's best-case
// normalization cancels them; both can be switched on.
#pragma once

#include "hardware/config.hpp"
#include "parallax/result.hpp"
#include "util/fields.hpp"

namespace parallax::noise {

struct NoiseOptions {
  bool include_gate_errors = true;
  bool include_decoherence = true;
  /// Movement-induced atom loss and trap-change errors (Parallax only; the
  /// baselines have neither).
  bool include_operation_overheads = true;
  /// Per-qubit readout error (shared by all techniques; off by default to
  /// match the paper's plotted numbers).
  bool include_readout = false;
  /// Background atom loss (shared; off by default, see above).
  bool include_atom_loss = false;
  /// Apply the T1/T2 decay per qubit instead of once per circuit. The
  /// paper's magnitudes match circuit-level decay; per-qubit is provided
  /// for sensitivity studies.
  bool per_qubit_decoherence = false;
};

/// The one field list of NoiseOptions (see util/fields.hpp).
template <util::FieldsOf<NoiseOptions> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.include_gate_errors, o.include_decoherence,
        o.include_operation_overheads, o.include_readout, o.include_atom_loss,
        o.per_qubit_decoherence);
}

/// How a sweep cell's success probability is produced. The closed-form
/// product above is the paper's metric and the default; the simulated
/// estimator replays the schedule through the discrete-event simulator
/// (src/sim) and reports the Monte Carlo shot-survival mean instead.
enum class FidelityModel : std::uint8_t {
  kClosedForm = 0,
  kSimulated = 1,
};

/// Options selecting and parameterizing the fidelity estimator. Defaults
/// reproduce the closed-form model byte-for-byte.
struct FidelityOptions {
  FidelityModel model = FidelityModel::kClosedForm;
  /// Monte Carlo shots per cell when `model == kSimulated`.
  std::int64_t shots = 4096;
  /// T1/T2 scale applied to the time a qubit spends in flight (1.0 = moving
  /// decoheres exactly like parking, which is what the closed-form model
  /// assumes; only meaningful with per-qubit decoherence).
  double moving_decoherence_scale = 1.0;
};

/// The one field list of FidelityOptions (see util/fields.hpp).
template <util::FieldsOf<FidelityOptions> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.model, o.shots, o.moving_decoherence_scale);
}

/// Estimated probability of success for one logical shot of `result` on the
/// hardware described by `config`.
[[nodiscard]] double success_probability(const compiler::CompileResult& result,
                                         const hardware::HardwareConfig& config,
                                         const NoiseOptions& options = {});

/// The decoherence factor alone: exp(-t/T1) * exp(-t/T2) over an interval of
/// `runtime_us`. This is the single definition of T1/T2 decay shared by the
/// closed-form model (one whole-runtime interval) and the discrete-event
/// simulator (one interval per event leg) — exp multiplicativity makes the
/// per-interval product equal the whole-runtime factor, so the two paths
/// cannot drift.
[[nodiscard]] double decoherence_factor(double runtime_us,
                                        const hardware::HardwareConfig& config);

}  // namespace parallax::noise
