#include "report/runner.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "report/artifact.hpp"
#include "shard/shard.hpp"

namespace parallax::report {

sweep::Result Runner::run(const shard::SweepSpec& spec) {
  sweep::Result result = execute(spec);
  ++totals_.sweeps;
  totals_.cells += result.cells.size();
  for (const auto& cell : result.cells) {
    if (cell.skipped || cell.cancelled) continue;
    ++totals_.executed_cells;
    if (!cell.ok()) ++totals_.failed_cells;
  }
  totals_.result_cache_hits += result.result_cache_hits;
  totals_.result_cache_misses += result.result_cache_misses;
  totals_.placement_disk_hits += result.placement_disk_hits;
  totals_.placement_memo_hits += result.placement_cache_hits;
  totals_.anneals += result.anneals;
  totals_.sweep_seconds += result.wall_seconds;
  return result;
}

sweep::Result InProcessRunner::execute(const shard::SweepSpec& spec) {
  sweep::Options options = spec.options;
  options.n_threads = config_.n_threads;
  options.cache = config_.cache;
  options.session = session_;
  options.on_cell = on_cell_;
  if (config_.shards > 1) {
    // The multi-host campaign shape, in one process: partition the matrix,
    // run each shard, merge. Byte-identical to the plain path by the shard
    // layer's differential guarantee.
    return shard::run_sharded(spec.circuits, spec.techniques, spec.machines,
                              config_.shards, options);
  }
  return sweep::run(spec.circuits, spec.techniques, spec.machines, options);
}

sweep::Result ServiceRunner::execute(const shard::SweepSpec& spec) {
  const std::size_t n_techniques = spec.techniques.size();
  const std::size_t n_machines = spec.machines.size();
  const std::size_t total = spec.total_cells();

  sweep::Result result;
  result.cells.resize(total);
  std::vector<char> placed(total, 0);
  std::mutex mutex;  // cell callbacks may overlap across worker threads

  const auto ticket = service_.submit(
      spec, [&](const sweep::Cell& cell) {
        const std::size_t flat =
            (cell.circuit_index * n_techniques + cell.technique_index) *
                n_machines +
            cell.machine_index;
        {
          std::lock_guard lock(mutex);
          if (flat < total && placed[flat] == 0) {
            placed[flat] = 1;
            result.cells[flat] = cell;
          }
        }
        if (on_cell_) on_cell_(cell);
      });
  const serve::Summary summary = ticket->wait();
  if (!summary.ok()) {
    throw ReportError("serve session request failed: " + summary.error);
  }

  // Label the cells the session never streamed (a cancelled request) the
  // way sweep::run labels them — same shape either way.
  for (std::size_t flat = 0; flat < total; ++flat) {
    if (placed[flat] != 0) continue;
    sweep::Cell& cell = result.cells[flat];
    const std::size_t per_circuit = n_techniques * n_machines;
    cell.circuit_index = flat / per_circuit;
    cell.technique_index = (flat % per_circuit) / n_machines;
    cell.machine_index = flat % n_machines;
    cell.circuit = spec.circuits[cell.circuit_index].name;
    cell.technique = spec.techniques[cell.technique_index];
    cell.machine = spec.machines[cell.machine_index].name;
    cell.cancelled = summary.cancelled;
    cell.skipped = !summary.cancelled;
  }
  result.cancelled = summary.cancelled;
  result.result_cache_hits = summary.result_cache_hits;
  result.result_cache_misses = summary.result_cache_misses;
  result.placement_disk_hits = summary.placement_disk_hits;
  result.placement_cache_hits = summary.placement_memo_hits;
  result.anneals = static_cast<std::size_t>(summary.anneals);
  result.wall_seconds = summary.wall_seconds;
  return result;
}

sweep::Result ClientRunner::execute(const shard::SweepSpec& spec) {
  serve::ClientOutcome outcome = client_.run(spec, on_cell_);
  if (!outcome.summary.ok()) {
    throw ReportError("serve request failed: " + outcome.summary.error);
  }
  return std::move(outcome.result);
}

}  // namespace parallax::report
