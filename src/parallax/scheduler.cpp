#include "parallax/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "circuit/dag.hpp"
#include "geometry/uniform_grid.hpp"
#include "parallax/movement.hpp"

namespace parallax::compiler {

namespace {

double gate_time_us(const circuit::Gate& g,
                    const hardware::HardwareConfig& config) {
  switch (g.type) {
    case circuit::GateType::kU3: return config.u3_time_us;
    case circuit::GateType::kCZ: return config.cz_time_us;
    case circuit::GateType::kSwap: return config.swap_time_us;
    case circuit::GateType::kMeasure: return 0.0;  // readout happens once,
                                                   // post-circuit
    case circuit::GateType::kBarrier: return 0.0;
  }
  return 0.0;
}

}  // namespace

ScheduleOutput schedule_gates(const circuit::Circuit& circuit,
                              hardware::Machine& machine,
                              const SchedulerOptions& options) {
  if (circuit.swap_count() != 0) {
    throw std::invalid_argument(
        "Parallax scheduler requires a SWAP-free circuit (transpile first)");
  }

  ScheduleOutput output;
  circuit::DependencyTracker dag(circuit);
  MovementEngine mover(machine, options.max_move_iterations);
  util::Rng rng(options.shuffle_seed);
  const auto& config = machine.config();
  // Endpoints of the CZs already accepted into the current layer (paper
  // Fig. 3a: two CZs conflict when any endpoint of one lies within the
  // blockade radius of an endpoint of the other).
  geom::UniformGrid blockade(machine.grid().extent(),
                             machine.blockade_radius());

  machine.save_home();

  while (!dag.done()) {
    Layer layer;
    bool moved_this_layer = false;

    // --- lines 8-11: one ready gate per qubit -------------------------------
    const std::vector<std::size_t> candidates = dag.ready_gates();
    assert(!candidates.empty());  // a non-done DAG always has a ready head

    // --- lines 12-19: movement resolution for out-of-range CZs --------------
    // Trap changes are *recorded* here but only charged (time + error) for
    // gates that survive the blockade filter and execute — an ejected gate
    // retries in a later layer and must not accumulate phantom trap
    // changes. The single physical AOD move is different: it mutates
    // machine state, so the moved gate is pinned into the layer.
    struct Accepted {
      std::size_t gate;
      char trap_change;  // 0 none, 1 failed move, 2 SLM-SLM excursion
    };
    std::vector<Accepted> accepted;
    std::size_t moved_gate = static_cast<std::size_t>(-1);
    for (const std::size_t gi : candidates) {
      const circuit::Gate& g = circuit.gate(gi);
      if (g.type != circuit::GateType::kCZ ||
          machine.within_interaction(g.q[0], g.q[1])) {
        accepted.push_back({gi, 0});
        continue;
      }

      // Prefer moving a mobile endpoint; one move-into-range per layer.
      const bool q0_mobile = machine.atom(g.q[0]).in_aod();
      const bool q1_mobile = machine.atom(g.q[1]).in_aod();
      if ((q0_mobile || q1_mobile) && !moved_this_layer) {
        const std::int32_t mobile = q0_mobile ? g.q[0] : g.q[1];
        const std::int32_t anchor = q0_mobile ? g.q[1] : g.q[0];
        const MoveOutcome move = mover.move_into_range(mobile, anchor);
        if (move.success) {
          moved_this_layer = true;
          moved_gate = gi;
          ++output.stats.aod_moves;
          ++layer.aod_moves;
          layer.move_distance_um =
              std::max(layer.move_distance_um, move.max_distance_um);
          output.stats.total_move_distance_um += move.max_distance_um;
          output.stats.max_move_distance_um = std::max(
              output.stats.max_move_distance_um, move.max_distance_um);
          accepted.push_back({gi, 0});
        } else {
          // Failed moves are resolved with a trap change (paper Sec. III).
          accepted.push_back({gi, 1});
        }
        continue;
      }
      if (!q0_mobile && !q1_mobile) {
        // Both static and out of range: trap-and-move excursion (the ~1.3%
        // case). The atom is temporarily AOD-trapped, moved into range,
        // the gate runs, and it returns to its SLM trap within the layer.
        accepted.push_back({gi, 2});
        continue;
      }
      // Mobile endpoint exists but this layer already moved: defer the gate
      // to a later layer (paper lines 16-17).
    }

    // --- line 20: shuffle to avoid starvation --------------------------------
    rng.shuffle(accepted);
    // Pin the physically-moved gate to the front so the blockade filter can
    // never waste the move.
    for (std::size_t i = 0; i < accepted.size(); ++i) {
      if (accepted[i].gate == moved_gate) {
        std::swap(accepted[0], accepted[i]);
        break;
      }
    }

    // --- lines 21-22: blockade-interference serialization --------------------
    std::vector<std::size_t> final_gates;
    blockade.clear();
    for (const auto& [gi, trap_change] : accepted) {
      const circuit::Gate& g = circuit.gate(gi);
      if (g.type == circuit::GateType::kCZ) {
        // Re-verify range: the layer's AOD move may have recursively
        // displaced an endpoint of a gate that was in range when it was
        // accepted. Such gates are ejected and retry next layer.
        // (Trap-change gates execute via an excursion and are exempt.)
        if (trap_change == 0 && !machine.within_interaction(g.q[0], g.q[1])) {
          continue;
        }
        const geom::Point a = machine.position(g.q[0]);
        const geom::Point b = machine.position(g.q[1]);
        const double radius = machine.blockade_radius();
        if (blockade.any_within(a, radius) || blockade.any_within(b, radius)) {
          continue;  // ejected back to the pool
        }
        blockade.insert(a);
        blockade.insert(b);
      }
      if (trap_change != 0) {
        ++layer.trap_changes;
        ++output.stats.trap_changes;
        if (trap_change == 2) ++output.stats.slm_slm_cz;
      }
      final_gates.push_back(gi);
    }
    if (final_gates.empty()) {
      // Progress guarantee: if every accepted gate was ejected (which the
      // movement engine's post-conditions should prevent), force the first
      // accepted gate through with a trap-change excursion rather than
      // spinning on an empty layer.
      assert(!accepted.empty());
      ++layer.trap_changes;
      ++output.stats.trap_changes;
      final_gates.push_back(accepted.front().gate);
    }

    // --- line 23: execute -----------------------------------------------------
    if (options.record_positions) {
      layer.positions.reserve(static_cast<std::size_t>(machine.n_qubits()));
      for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
        layer.positions.push_back(machine.position(q));
      }
    }
    double max_gate_time = 0.0;
    for (const std::size_t gi : final_gates) {
      const circuit::Gate& g = circuit.gate(gi);
      max_gate_time = std::max(max_gate_time, gate_time_us(g, config));
      switch (g.type) {
        case circuit::GateType::kU3: ++output.stats.u3_gates; break;
        case circuit::GateType::kCZ: ++output.stats.cz_gates; break;
        default: break;
      }
      dag.mark_executed(gi);
    }

    // --- line 24: reset moved atoms -------------------------------------------
    if (options.return_home) {
      layer.return_distance_um = machine.return_all_home();
    } else if (moved_this_layer) {
      // Home drifts with the atoms: future saves anchor at current state.
      machine.save_home();
    }

    layer.gates = std::move(final_gates);
    layer.duration_us =
        max_gate_time +
        (layer.move_distance_um + layer.return_distance_um) /
            config.aod_speed_um_per_us +
        static_cast<double>(layer.trap_changes) * config.trap_switch_time_us;
    output.runtime_us += layer.duration_us;
    output.stats.layers += 1;
    output.layers.push_back(std::move(layer));
  }

  // Every executed out-of-range CZ was resolved by exactly one AOD move or
  // one trap change.
  output.stats.out_of_range_cz =
      output.stats.aod_moves + output.stats.trap_changes;
  return output;
}

}  // namespace parallax::compiler
