// The recursive AOD movement engine (paper Sec. II-D): moves a mobile atom
// into the Rydberg interaction radius of a partner atom. Obstructions are
// resolved recursively —
//   * AOD atoms inside the minimum-separation zone of the moving atom are
//     pushed away (and their own obstructions are pushed in turn),
//   * AOD lines whose non-crossing order would be violated displace the
//     interfering neighbour lines recursively,
//   * static SLM atoms cannot be displaced; the engine instead picks a
//     different approach point around the partner.
// Recursion is capped at 80 iterations (the paper's hard limit); failure is
// reported so the scheduler can fall back to a 100 us trap change.
//
// Repeated searches are replayed, not re-run. A search reads only (mover,
// partner), the AOD configuration (AOD atom positions and line coordinates)
// and data fixed for the engine's life, and a failed search restores that
// configuration bit for bit. So while the configuration stays bit-identical
// (a home-returning scheduler puts the same home configuration back before
// every layer), each (mover, partner) pair is searched once: a replayed
// failure leaves the machine untouched and a replayed success restores the
// recorded post-move configuration. Any other configuration drops the memo.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geometry/uniform_grid.hpp"
#include "hardware/machine.hpp"

namespace parallax::compiler {

struct MoveOutcome {
  bool success = false;
  /// Maximum distance travelled by any single atom in this operation — the
  /// quantity the runtime model charges (all tandem moves overlap in time).
  double max_distance_um = 0.0;
  int displaced_atoms = 0;  // other AOD atoms pushed out of the way
  int iterations = 0;       // recursion budget consumed
};

class MovementEngine {
 public:
  /// Indexes the machine's trap assignment, which must stay fixed for the
  /// engine's lifetime (AOD selection runs before scheduling): static atoms
  /// never move, so only AOD atoms and lines are ever read back or rolled
  /// back.
  explicit MovementEngine(hardware::Machine& machine, int max_iterations = 80);

  /// Moves AOD atom `mover` within the interaction radius of `partner`.
  /// On failure the machine state is restored to the pre-call configuration.
  /// A pair already searched from the same configuration replays the
  /// recorded outcome and end state.
  [[nodiscard]] MoveOutcome move_into_range(std::int32_t mover,
                                            std::int32_t partner);

 private:
  /// The recursive search itself, from the configuration saved in initial_.
  MoveOutcome search(std::int32_t mover, std::int32_t partner);

  /// Places `q` at `target`, recursively displacing obstructing AOD atoms
  /// and lines. Returns false when the budget runs out or a static atom
  /// blocks the exact spot.
  bool place_atom(std::int32_t q, geom::Point target, int depth);

  /// Pushes the AOD atom `q` radially away from `from` until it clears the
  /// minimum separation, recursing on secondary obstructions.
  bool push_away(std::int32_t q, geom::Point from, int depth);

  /// Resolves AOD line-ordering conflicts for atom q sitting at `target`.
  bool resolve_line_order(std::int32_t q, geom::Point target, int depth);

  /// Moves line `line` (row when is_row) to `coord`, recursively pushing
  /// neighbour lines outward and carrying any occupant atom along.
  bool move_line(bool is_row, std::int32_t line, double coord, int depth);

  /// Pushes the neighbours of `line` out of the way so it can sit at
  /// `coord`; does not move `line` itself.
  bool make_room(bool is_row, std::int32_t line, double coord, int depth);

  void note_move(std::int32_t q, geom::Point from, geom::Point to);

  /// Everything a move attempt can change, for rollback when it fails (the
  /// scheduler then falls back to a trap change and the machine must be
  /// exactly as it was).
  struct Snapshot {
    std::vector<geom::Point> positions;  // parallel to aod_qubits_
    std::vector<double> travel;          // parallel to aod_qubits_
    std::vector<double> rows;
    std::vector<double> cols;
    double max_distance = 0.0;
    int displaced = 0;
  };
  void save(Snapshot& snapshot) const;
  void restore(const Snapshot& snapshot);
  /// Bit-identical AOD atom positions and line coordinates (travel and the
  /// counters are per-call scratch and not compared).
  static bool same_configuration(const Snapshot& a, const Snapshot& b);

  /// A recorded search from base_: its outcome and, for a success, the
  /// configuration it left behind (empty for a failure).
  struct Replay {
    MoveOutcome outcome;
    Snapshot after;
  };

  hardware::Machine* machine_;
  int max_iterations_;
  /// Positions of the static (SLM) atoms, cell side = minimum separation.
  geom::UniformGrid static_atoms_;
  /// The AOD qubits in ascending order: the only atoms that can move.
  std::vector<std::int32_t> aod_qubits_;
  /// Distance travelled by each qubit in the current move operation.
  std::vector<double> travel_;
  Snapshot initial_;
  Snapshot attempt_;
  /// The configuration the replays were recorded from.
  Snapshot base_;
  /// Keyed by (mover << 32 | partner).
  std::unordered_map<std::uint64_t, Replay> replays_;
  int iterations_used_ = 0;
  double max_distance_ = 0.0;
  int displaced_ = 0;
};

}  // namespace parallax::compiler
