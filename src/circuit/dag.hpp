// Per-qubit dependency tracking over a circuit's gate list. This is the
// structure Algorithm 1 (the Parallax scheduler) iterates: a gate is ready
// when it is the next unexecuted gate on every qubit it touches.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"

namespace parallax::circuit {

class DependencyTracker {
 public:
  explicit DependencyTracker(const Circuit& circuit);

  /// Index (into circuit.gates()) of the next unexecuted gate on `qubit`,
  /// or nullopt if the qubit has no gates left.
  [[nodiscard]] std::optional<std::size_t> next_gate(std::int32_t qubit) const;

  /// A gate is ready iff it is the head of every involved qubit's queue.
  [[nodiscard]] bool is_ready(std::size_t gate_index) const;

  /// Marks a ready gate executed and advances the involved qubits' cursors.
  /// Precondition: is_ready(gate_index).
  void mark_executed(std::size_t gate_index);

  /// Every ready gate, by ascending lowest qubit: one scan over the qubits'
  /// queue heads, each ready gate listed once.
  [[nodiscard]] std::vector<std::size_t> ready_gates() const;

  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] bool done() const noexcept { return remaining_ == 0; }

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }

 private:
  const Circuit* circuit_;
  // per_qubit_[q] = ordered gate indices touching q; cursor_[q] = position of
  // the next unexecuted one.
  std::vector<std::vector<std::size_t>> per_qubit_;
  std::vector<std::size_t> cursor_;
  std::size_t remaining_ = 0;
};

/// ASAP layering of a circuit: gates grouped by dependency level only
/// (ignores hardware constraints). Used for depth statistics, tests, and as
/// the baseline layering the routers refine.
[[nodiscard]] std::vector<std::vector<std::size_t>> asap_layers(
    const Circuit& circuit);

}  // namespace parallax::circuit
