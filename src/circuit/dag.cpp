#include "circuit/dag.hpp"

#include <algorithm>
#include <cassert>

namespace parallax::circuit {

DependencyTracker::DependencyTracker(const Circuit& circuit)
    : circuit_(&circuit),
      per_qubit_(static_cast<std::size_t>(circuit.n_qubits())),
      cursor_(static_cast<std::size_t>(circuit.n_qubits()), 0) {
  const auto& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    if (g.type == GateType::kBarrier) continue;  // scheduler-level concern
    for (int k = 0; k < g.arity(); ++k) {
      per_qubit_[static_cast<std::size_t>(g.q[k])].push_back(i);
    }
    ++remaining_;
  }
}

std::optional<std::size_t> DependencyTracker::next_gate(
    std::int32_t qubit) const {
  const auto& queue = per_qubit_[static_cast<std::size_t>(qubit)];
  const std::size_t pos = cursor_[static_cast<std::size_t>(qubit)];
  if (pos >= queue.size()) return std::nullopt;
  return queue[pos];
}

bool DependencyTracker::is_ready(std::size_t gate_index) const {
  const Gate& g = circuit_->gate(gate_index);
  for (int k = 0; k < g.arity(); ++k) {
    if (next_gate(g.q[k]) != gate_index) return false;
  }
  return true;
}

void DependencyTracker::mark_executed(std::size_t gate_index) {
  assert(is_ready(gate_index));
  const Gate& g = circuit_->gate(gate_index);
  for (int k = 0; k < g.arity(); ++k) {
    ++cursor_[static_cast<std::size_t>(g.q[k])];
  }
  assert(remaining_ > 0);
  --remaining_;
}

std::vector<std::size_t> DependencyTracker::ready_gates() const {
  std::vector<std::size_t> ready;
  for (std::int32_t q = 0; q < circuit_->n_qubits(); ++q) {
    const auto head = next_gate(q);
    if (!head) continue;
    // A two-qubit gate heads both its qubits' queues; list it at the lower.
    const Gate& g = circuit_->gate(*head);
    if (g.is_two_qubit() && std::min(g.q[0], g.q[1]) != q) continue;
    if (is_ready(*head)) ready.push_back(*head);
  }
  return ready;
}

std::vector<std::vector<std::size_t>> asap_layers(const Circuit& circuit) {
  std::vector<std::size_t> level(static_cast<std::size_t>(circuit.n_qubits()),
                                 0);
  std::vector<std::vector<std::size_t>> layers;
  std::size_t barrier_floor = 0;
  const auto& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    if (g.type == GateType::kBarrier) {
      for (auto l : level) barrier_floor = std::max(barrier_floor, l);
      std::fill(level.begin(), level.end(), barrier_floor);
      continue;
    }
    std::size_t start = barrier_floor;
    for (int k = 0; k < g.arity(); ++k) {
      start = std::max(start, level[static_cast<std::size_t>(g.q[k])]);
    }
    if (start >= layers.size()) layers.resize(start + 1);
    layers[start].push_back(i);
    for (int k = 0; k < g.arity(); ++k) {
      level[static_cast<std::size_t>(g.q[k])] = start + 1;
    }
  }
  return layers;
}

}  // namespace parallax::circuit
