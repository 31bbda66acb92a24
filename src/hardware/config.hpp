// Hardware parameters (paper Table II) plus machine-geometry presets for the
// two evaluation systems: QuEra Aquila-like (256 atoms, 16x16) and Atom
// Computing-like (1,225 atoms, 35x35). All parameters are overridable so the
// simulator "can evolve alongside advancements in neutral atom hardware"
// (paper Sec. V).
#pragma once

#include <cstdint>
#include <string>

#include "util/fields.hpp"

namespace parallax::hardware {

struct HardwareConfig {
  std::string name = "custom";

  // --- geometry -------------------------------------------------------------
  /// Square SLM site grid: side x side sites.
  std::int32_t grid_side = 16;
  /// Minimum separation distance between any two atoms (um).
  double min_separation_um = 2.0;
  /// Extra padding added to the discretization pitch so AOD atoms can
  /// navigate between static SLM atoms (paper Sec. II-A).
  double discretization_padding_um = 1.0;
  /// Number of AOD rows and columns (paper default: 20; ablated in Fig. 13).
  std::int32_t aod_rows = 20;
  std::int32_t aod_cols = 20;

  // --- timing (us) ------------------------------------------------------------
  double u3_time_us = 2.0;
  double cz_time_us = 0.8;
  /// SWAP = 3 CZ executed back-to-back (baselines only).
  double swap_time_us = 2.4;
  double trap_switch_time_us = 100.0;
  /// AOD movement speed (um/us).
  double aod_speed_um_per_us = 55.0;

  // --- error rates (probabilities) --------------------------------------------
  double u3_error = 0.000127;
  double cz_error = 0.0048;
  double swap_error = 0.0143;
  double trap_switch_error = 0.001;   // <0.1% per the paper (Sec. IV)
  double movement_loss = 0.001;       // <0.1% atom loss per move
  double atom_loss_rate = 0.007;      // background loss per physical shot
  double readout_error = 0.05;

  // --- coherence (seconds) -----------------------------------------------------
  double t1_seconds = 4.0;
  double t2_seconds = 1.49;

  // --- derived -----------------------------------------------------------------
  [[nodiscard]] std::int32_t n_atoms() const noexcept {
    return grid_side * grid_side;
  }
  /// Discretization pitch: twice the minimum separation plus padding, which
  /// guarantees the separation constraint for static atoms and leaves room
  /// for a mobile atom to pass between any two of them.
  [[nodiscard]] double pitch_um() const noexcept {
    return 2.0 * min_separation_um + discretization_padding_um;
  }
  /// Physical side length of the site grid (um).
  [[nodiscard]] double extent_um() const noexcept {
    return (grid_side - 1) * pitch_um();
  }

  /// QuEra Aquila-like 256-qubit system, 16x16 sites (paper main results).
  [[nodiscard]] static HardwareConfig quera_aquila_256();
  /// Atom Computing-like 1,225-qubit system, 35x35 sites (paper scaling
  /// results).
  [[nodiscard]] static HardwareConfig atom_computing_1225();
};

/// The one field list of HardwareConfig (see util/fields.hpp): every
/// numeric and geometry field. The display `name` is deliberately left
/// out — it never reaches a compile result, so renaming a machine keeps
/// its cache keys.
template <util::FieldsOf<HardwareConfig> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.grid_side, o.min_separation_um, o.discretization_padding_um,
        o.aod_rows, o.aod_cols, o.u3_time_us, o.cz_time_us, o.swap_time_us,
        o.trap_switch_time_us, o.aod_speed_um_per_us, o.u3_error, o.cz_error,
        o.swap_error, o.trap_switch_error, o.movement_loss, o.atom_loss_rate,
        o.readout_error, o.t1_seconds, o.t2_seconds);
}

}  // namespace parallax::hardware
