#include "parallax/movement.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <vector>

namespace parallax::compiler {

namespace {

geom::Point rotate(geom::Point v, double radians) {
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  return {v.x * c - v.y * s, v.x * s + v.y * c};
}

/// Bit equality, stricter than ==: -0.0 and 0.0 are different inputs to the
/// search, so they must not share a replay.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

MovementEngine::MovementEngine(hardware::Machine& machine, int max_iterations)
    : machine_(&machine),
      max_iterations_(max_iterations),
      static_atoms_(machine.grid().extent(),
                    machine.config().min_separation_um),
      travel_(static_cast<std::size_t>(machine.n_qubits()), 0.0) {
  for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
    if (machine.atom(q).in_aod()) {
      aod_qubits_.push_back(q);
    } else {
      static_atoms_.insert(machine.position(q));
    }
  }
}

void MovementEngine::save(Snapshot& snapshot) const {
  const auto& machine = *machine_;
  snapshot.positions.clear();
  snapshot.travel.clear();
  for (const std::int32_t q : aod_qubits_) {
    snapshot.positions.push_back(machine.position(q));
    snapshot.travel.push_back(travel_[static_cast<std::size_t>(q)]);
  }
  const auto& aod = machine.aod();
  snapshot.rows.clear();
  for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
    snapshot.rows.push_back(aod.row_coord(r));
  }
  snapshot.cols.clear();
  for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
    snapshot.cols.push_back(aod.col_coord(c));
  }
  snapshot.max_distance = max_distance_;
  snapshot.displaced = displaced_;
}

void MovementEngine::restore(const Snapshot& snapshot) {
  auto& machine = *machine_;
  for (std::size_t i = 0; i < aod_qubits_.size(); ++i) {
    machine.move_aod_atom(aod_qubits_[i], snapshot.positions[i]);
    travel_[static_cast<std::size_t>(aod_qubits_[i])] = snapshot.travel[i];
  }
  // Lines last: move_aod_atom drags an atom's lines along with it.
  auto& aod = machine.aod();
  for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
    aod.set_row_coord(r, snapshot.rows[static_cast<std::size_t>(r)]);
  }
  for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
    aod.set_col_coord(c, snapshot.cols[static_cast<std::size_t>(c)]);
  }
  max_distance_ = snapshot.max_distance;
  displaced_ = snapshot.displaced;
}

bool MovementEngine::same_configuration(const Snapshot& a,
                                        const Snapshot& b) {
  const auto same_point = [](geom::Point p, geom::Point q) {
    return same_bits(p.x, q.x) && same_bits(p.y, q.y);
  };
  return std::ranges::equal(a.positions, b.positions, same_point) &&
         std::ranges::equal(a.rows, b.rows, same_bits) &&
         std::ranges::equal(a.cols, b.cols, same_bits);
}

void MovementEngine::note_move(std::int32_t q, geom::Point from,
                               geom::Point to) {
  double& travel = travel_[static_cast<std::size_t>(q)];
  travel += geom::distance(from, to);
  max_distance_ = std::max(max_distance_, travel);
}

bool MovementEngine::move_line(bool is_row, std::int32_t line, double coord,
                               int depth) {
  auto& machine = *machine_;
  auto& aod = machine.aod();
  if (++iterations_used_ > max_iterations_ || depth > max_iterations_) {
    return false;
  }
  if (!make_room(is_row, line, coord, depth)) return false;

  const std::int32_t occupant = is_row ? aod.row_qubit(line)
                                       : aod.col_qubit(line);
  if (occupant < 0) {
    if (is_row) {
      aod.set_row_coord(line, coord);
    } else {
      aod.set_col_coord(line, coord);
    }
    return true;
  }

  // Occupied line: the atom rides along (tandem constraint). Its landing
  // spot may hit a static atom; nudge further along the push direction a
  // few times before giving up.
  const double old_coord = is_row ? aod.row_coord(line) : aod.col_coord(line);
  const double direction = (coord >= old_coord) ? 1.0 : -1.0;
  const double step = machine.config().min_separation_um;
  ++displaced_;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const double c = coord + direction * step * attempt;
    geom::Point p = machine.position(occupant);
    if (is_row) {
      p.y = c;
    } else {
      p.x = c;
    }
    if (place_atom(occupant, p, depth + 1)) return true;
    if (iterations_used_ > max_iterations_) return false;
  }
  return false;
}

bool MovementEngine::make_room(bool is_row, std::int32_t line, double coord,
                               int depth) {
  auto& machine = *machine_;
  auto& aod = machine.aod();
  const double gap = aod.min_line_gap();
  const std::int32_t count = is_row ? aod.n_rows() : aod.n_cols();
  auto coord_of = [&](std::int32_t l) {
    return is_row ? aod.row_coord(l) : aod.col_coord(l);
  };
  // Only the neighbour on the side we move toward can newly violate the
  // gap; pushing it propagates outward in one direction, so the recursion
  // terminates after at most `count` lines.
  if (line + 1 < count && coord_of(line + 1) < coord + gap) {
    if (!move_line(is_row, line + 1, coord + gap * 1.01, depth + 1)) {
      return false;
    }
  }
  if (line - 1 >= 0 && coord_of(line - 1) > coord - gap) {
    if (!move_line(is_row, line - 1, coord - gap * 1.01, depth + 1)) {
      return false;
    }
  }
  return true;
}

bool MovementEngine::resolve_line_order(std::int32_t q, geom::Point target,
                                        int depth) {
  const hardware::Atom& atom = machine_->atom(q);
  return make_room(/*is_row=*/true, atom.aod_row, target.y, depth) &&
         make_room(/*is_row=*/false, atom.aod_col, target.x, depth);
}

bool MovementEngine::push_away(std::int32_t q, geom::Point from, int depth) {
  auto& machine = *machine_;
  const double min_sep = machine.config().min_separation_um;
  const geom::Point pos = machine.position(q);
  geom::Point dir = pos - from;
  const double d = dir.norm();
  if (d > 1e-12) {
    dir = dir * (1.0 / d);
  } else {
    dir = {1.0, 0.0};  // coincident: pick an arbitrary direction
  }
  const double needed = min_sep * 1.05 - d;
  // Try the radial direction first, then rotations, in case a static atom
  // sits exactly along the escape path.
  constexpr double kAngles[] = {0.0, 0.7853981633974483, -0.7853981633974483,
                                1.5707963267948966, -1.5707963267948966};
  for (const double angle : kAngles) {
    if (iterations_used_ > max_iterations_) return false;
    const geom::Point candidate =
        pos + rotate(dir, angle) * std::max(needed, min_sep * 0.55);
    if (place_atom(q, candidate, depth + 1)) return true;
  }
  return false;
}

bool MovementEngine::place_atom(std::int32_t q, geom::Point target,
                                int depth) {
  auto& machine = *machine_;
  if (++iterations_used_ > max_iterations_ || depth > max_iterations_) {
    return false;
  }

  // Static atoms cannot yield; an SLM atom inside the separation zone of the
  // target makes this spot infeasible.
  const double min_sep = machine.config().min_separation_um;
  if (static_atoms_.any_within(target, min_sep)) return false;

  if (!resolve_line_order(q, target, depth)) return false;

  // Mobile atoms in the way are displaced recursively. Positions are read as
  // each atom is visited: an earlier push may already have moved it.
  for (const std::int32_t other : aod_qubits_) {
    if (other == q) continue;
    if (geom::distance(machine.position(other), target) < min_sep) {
      if (!push_away(other, target, depth + 1)) return false;
    }
  }

  const geom::Point from = machine.position(q);
  machine.move_aod_atom(q, target);
  note_move(q, from, target);
  return true;
}

MoveOutcome MovementEngine::move_into_range(std::int32_t mover,
                                            std::int32_t partner) {
  iterations_used_ = 0;
  max_distance_ = 0.0;
  displaced_ = 0;
  for (const std::int32_t q : aod_qubits_) {
    travel_[static_cast<std::size_t>(q)] = 0.0;
  }
  save(initial_);

  if (!same_configuration(initial_, base_)) {
    replays_.clear();
    base_ = initial_;
  }
  const std::uint64_t key =
      (std::uint64_t{static_cast<std::uint32_t>(mover)} << 32) |
      static_cast<std::uint32_t>(partner);
  if (const auto it = replays_.find(key); it != replays_.end()) {
    if (it->second.outcome.success) restore(it->second.after);
    return it->second.outcome;
  }

  Replay replay{search(mover, partner), {}};
  if (replay.outcome.success) save(replay.after);
  return replays_.emplace(key, std::move(replay)).first->second.outcome;
}

MoveOutcome MovementEngine::search(std::int32_t mover, std::int32_t partner) {
  auto& machine = *machine_;
  MoveOutcome outcome;
  const double r = machine.interaction_radius();
  const double min_sep = machine.config().min_separation_um;
  const double approach =
      std::clamp(0.9 * r, std::min(1.2 * min_sep, 0.98 * r), 0.98 * r);
  const double extent = machine.grid().extent();

  // Approach points around the partner, nearest-to-current-direction first.
  constexpr double kDeg = std::numbers::pi / 180.0;
  constexpr double kAngles[] = {0.0,         30.0 * kDeg,  -30.0 * kDeg,
                                60.0 * kDeg, -60.0 * kDeg, 90.0 * kDeg,
                                -90.0 * kDeg, 135.0 * kDeg, -135.0 * kDeg,
                                180.0 * kDeg};

  // The recursive displacement of a successful placement may carry the
  // *partner* along (its AOD line can be an order-blocker of the mover's).
  // When that happens the mover chases the partner's new position for a few
  // rounds instead of giving up — a genuine physical sequence of moves whose
  // travel accumulates into the timing model.
  constexpr int kChaseRounds = 4;
  for (int round = 0; round < kChaseRounds; ++round) {
    const geom::Point partner_pos = machine.position(partner);
    geom::Point dir = machine.position(mover) - partner_pos;
    const double d = dir.norm();
    dir = (d > 1e-12) ? dir * (1.0 / d) : geom::Point{1.0, 0.0};

    bool placed = false;
    for (const double angle : kAngles) {
      geom::Point target = partner_pos + rotate(dir, angle) * approach;
      target.x = std::clamp(target.x, 0.0, extent);
      target.y = std::clamp(target.y, 0.0, extent);
      if (geom::distance(target, partner_pos) > r) continue;  // clamped out
      if (geom::distance(target, partner_pos) < min_sep) continue;
      // A mobile partner rides its own AOD lines: approaching almost
      // axis-aligned would force the mover's row (or column) within the
      // line gap of the partner's, pushing the partner away with it. Skip
      // those angles — an oblique approach keeps both lines clear.
      if (machine.atom(partner).in_aod()) {
        const double gap = machine.aod().min_line_gap() * 1.05;
        if (std::abs(target.y - partner_pos.y) < gap ||
            std::abs(target.x - partner_pos.x) < gap) {
          continue;
        }
      }

      // Roll back failed attempts (machine state and travel accounting).
      save(attempt_);
      if (place_atom(mover, target, 0)) {
        placed = true;
        break;
      }
      restore(attempt_);
      if (iterations_used_ > max_iterations_) break;  // budget exhausted
    }

    if (!placed) break;
    if (machine.within_interaction(mover, partner)) {
      outcome.success = true;
      outcome.max_distance_um = max_distance_;
      outcome.displaced_atoms = displaced_;
      outcome.iterations = iterations_used_;
      return outcome;
    }
    // Partner drifted: keep the state and chase in the next round.
    if (iterations_used_ > max_iterations_) break;
  }

  restore(initial_);
  outcome.success = false;
  outcome.iterations = iterations_used_;
  return outcome;
}

}  // namespace parallax::compiler
