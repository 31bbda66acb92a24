#include "shard/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <utility>

#include "cache/fields.hpp"
#include "placement/graphine.hpp"
#include "util/stopwatch.hpp"

namespace parallax::shard {

namespace {

using cache::Reader;
using cache::ReadError;
using cache::Writer;

std::string local_host_name() {
  char buffer[256] = {};
  if (::gethostname(buffer, sizeof(buffer) - 1) != 0) return "localhost";
  return buffer[0] != '\0' ? std::string(buffer) : std::string("localhost");
}

/// The byte-identity view of one cell: everything that constitutes the
/// cell's content, nothing that describes how/where it was computed.
void encode_cell_canonical(Writer& writer, const sweep::Cell& cell) {
  writer.str(cell.circuit);
  writer.str(cell.technique);
  writer.str(cell.machine);
  writer.u64(cell.circuit_index);
  writer.u64(cell.technique_index);
  writer.u64(cell.machine_index);
  writer.str(cell.error);
  cache::encode(writer, cell.result);
  writer.f64(cell.success_probability);
  writer.u64(cell.shot_plans.size());
  for (const auto& plan : cell.shot_plans) cache::write_fields(writer, plan);
}

sweep::Cell decode_cell_canonical(Reader& reader) {
  sweep::Cell cell;
  cell.circuit = reader.str();
  cell.technique = reader.str();
  cell.machine = reader.str();
  cell.circuit_index = static_cast<std::size_t>(reader.u64());
  cell.technique_index = static_cast<std::size_t>(reader.u64());
  cell.machine_index = static_cast<std::size_t>(reader.u64());
  cell.error = reader.str();
  cell.result = cache::decode_result(reader);
  cell.success_probability = reader.f64();
  cell.shot_plans.resize(reader.length(24));
  for (auto& plan : cell.shot_plans) cache::read_fields(reader, plan);
  return cell;
}

std::string canonical_cell_bytes(const sweep::Cell& cell) {
  Writer writer;
  encode_cell_canonical(writer, cell);
  return writer.take();
}

std::size_t flat_index(const sweep::Cell& cell, std::size_t n_techniques,
                       std::size_t n_machines) {
  return (cell.circuit_index * n_techniques + cell.technique_index) *
             n_machines +
         cell.machine_index;
}

/// Matrix size from untrusted (file-supplied) dimensions, overflow-checked
/// and capped: the frame checksum is an integrity check, not a security
/// boundary, and a crafted header must yield ShardError — never a wrapped
/// multiply indexing out of bounds or a terabyte resize.
std::size_t checked_total_cells(std::uint64_t n_circuits,
                                std::uint64_t n_techniques,
                                std::uint64_t n_machines) {
  constexpr std::uint64_t kMaxCells = 1ull << 24;  // far beyond any campaign
  if (n_circuits == 0 || n_techniques == 0 || n_machines == 0) {
    throw ShardError("shard run declares an empty matrix axis");
  }
  if (n_circuits > kMaxCells || n_techniques > kMaxCells ||
      n_machines > kMaxCells ||
      n_circuits * n_techniques > kMaxCells ||
      n_circuits * n_techniques * n_machines > kMaxCells) {
    throw ShardError("shard run declares an implausibly large matrix");
  }
  return static_cast<std::size_t>(n_circuits * n_techniques * n_machines);
}

void fold_sweep_accounting(ShardRun& run, const sweep::Result& swept) {
  run.wall_seconds = swept.wall_seconds;
  run.threads_used = swept.threads_used;
  run.placement_cache_hits = swept.placement_cache_hits;
  run.placement_cache_misses = swept.placement_cache_misses;
  run.transpile_cache_hits = swept.transpile_cache_hits;
  run.transpile_cache_misses = swept.transpile_cache_misses;
  run.placement_disk_hits = swept.placement_disk_hits;
  run.result_cache_hits = swept.result_cache_hits;
  run.result_cache_misses = swept.result_cache_misses;
}

}  // namespace

void encode_cell(Writer& writer, const sweep::Cell& cell) {
  encode_cell_canonical(writer, cell);
  writer.str(cell.origin);
  writer.boolean(cell.from_cache);
  writer.f64(cell.compile_seconds);
}

sweep::Cell decode_cell(Reader& reader) {
  sweep::Cell cell = decode_cell_canonical(reader);
  cell.origin = reader.str();
  cell.from_cache = reader.boolean();
  cell.compile_seconds = reader.f64();
  return cell;
}

CellRange shard_cell_range(std::size_t total_cells, std::uint32_t shard_count,
                           std::uint32_t shard_index) {
  if (shard_count == 0) throw ShardError("shard_count must be at least 1");
  if (shard_index >= shard_count) {
    throw ShardError("shard_index outside [0, shard_count)");
  }
  const std::size_t base = total_cells / shard_count;
  const std::size_t remainder = total_cells % shard_count;
  CellRange range;
  range.begin = shard_index * base + std::min<std::size_t>(shard_index,
                                                           remainder);
  range.end = range.begin + base + (shard_index < remainder ? 1 : 0);
  return range;
}

std::vector<ShardSpec> plan(const SweepSpec& spec, std::uint32_t shard_count,
                            const technique::Registry& registry) {
  if (shard_count == 0) throw ShardError("shard_count must be at least 1");
  if (spec.circuits.empty() || spec.techniques.empty() ||
      spec.machines.empty()) {
    throw ShardError("cannot plan shards over an empty matrix axis");
  }
  for (const auto& technique : spec.techniques) (void)registry.info(technique);
  // Serializability is part of plan's contract — fail here, not on a remote
  // host with half a campaign already running.
  (void)sweep_spec_payload(spec);
  std::vector<ShardSpec> shards;
  shards.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shards.push_back({spec, i, shard_count});
  }
  return shards;
}

ShardRun run_shard(const ShardSpec& spec, const RunnerOptions& runner,
                   const technique::Registry& registry) {
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw ShardError("shard spec has shard_index outside [0, shard_count)");
  }
  const std::size_t total = spec.sweep.total_cells();
  const CellRange owned =
      shard_cell_range(total, spec.shard_count, spec.shard_index);

  ShardRun run;
  run.spec = spec_digest(spec.sweep);
  run.shard_index = spec.shard_index;
  run.shard_count = spec.shard_count;
  run.n_circuits = spec.sweep.circuits.size();
  run.n_techniques = spec.sweep.techniques.size();
  run.n_machines = spec.sweep.machines.size();

  sweep::Options options = spec.sweep.options;
  options.n_threads = runner.n_threads;
  options.cache = runner.cache;
  options.cell_filter = [owned](std::size_t flat) {
    return owned.contains(flat);
  };
  options.provenance =
      !runner.provenance.empty()
          ? runner.provenance
          : "shard-" + std::to_string(spec.shard_index) + "/" +
                std::to_string(spec.shard_count) + "@" + local_host_name();

  sweep::Result swept =
      sweep::run(spec.sweep.circuits, spec.sweep.techniques,
                 spec.sweep.machines, options, registry);
  run.anneals = swept.anneals;
  fold_sweep_accounting(run, swept);
  run.cells.reserve(owned.size());
  for (auto& cell : swept.cells) {
    if (!cell.skipped) run.cells.push_back(std::move(cell));
  }
  return run;
}

sweep::Result merge(std::vector<ShardRun> runs) {
  if (runs.empty()) throw ShardError("merge needs at least one shard run");
  const ShardRun& first = runs.front();
  for (const auto& run : runs) {
    if (run.spec != first.spec) {
      throw ShardError("cannot merge shard runs from different sweep specs");
    }
    if (run.shard_count != first.shard_count) {
      throw ShardError("cannot merge shard runs from different plans");
    }
    if (run.n_circuits != first.n_circuits ||
        run.n_techniques != first.n_techniques ||
        run.n_machines != first.n_machines) {
      throw ShardError("shard runs disagree on the matrix dimensions");
    }
  }
  const std::size_t total = checked_total_cells(
      first.n_circuits, first.n_techniques, first.n_machines);
  const std::size_t n_techniques =
      static_cast<std::size_t>(first.n_techniques);
  const std::size_t n_machines = static_cast<std::size_t>(first.n_machines);

  sweep::Result merged;
  merged.cells.resize(total);
  std::vector<char> filled(total, 0);
  for (auto& run : runs) {
    for (auto& cell : run.cells) {
      if (cell.circuit_index >= first.n_circuits ||
          cell.technique_index >= n_techniques ||
          cell.machine_index >= n_machines) {
        throw ShardError("shard run contains a cell outside the matrix: " +
                         cell.circuit + "/" + cell.technique + "/" +
                         cell.machine);
      }
      const std::size_t flat = flat_index(cell, n_techniques, n_machines);
      if (filled[flat] != 0) {
        const bool identical = canonical_cell_bytes(merged.cells[flat]) ==
                               canonical_cell_bytes(cell);
        throw ShardError(std::string(identical ? "duplicate" : "conflicting") +
                         " cell in shard runs: " + cell.circuit + "/" +
                         cell.technique + "/" + cell.machine +
                         (identical ? " (two shards own the same cell)"
                                    : " (same cell, different content — "
                                      "determinism violation)"));
      }
      merged.cells[flat] = std::move(cell);
      filled[flat] = 1;
    }
    merged.placement_cache_hits += run.placement_cache_hits;
    merged.placement_cache_misses += run.placement_cache_misses;
    merged.transpile_cache_hits += run.transpile_cache_hits;
    merged.transpile_cache_misses += run.transpile_cache_misses;
    merged.placement_disk_hits += run.placement_disk_hits;
    merged.result_cache_hits += run.result_cache_hits;
    merged.result_cache_misses += run.result_cache_misses;
    merged.anneals += static_cast<std::size_t>(run.anneals);
    merged.wall_seconds = std::max(merged.wall_seconds, run.wall_seconds);
    merged.threads_used = std::max(merged.threads_used,
                                   static_cast<std::size_t>(run.threads_used));
  }
  for (std::size_t flat = 0; flat < total; ++flat) {
    if (filled[flat] == 0) {
      const std::size_t per_circuit = n_techniques * n_machines;
      throw ShardError(
          "missing cell in shard runs: circuit " +
          std::to_string(flat / per_circuit) + ", technique " +
          std::to_string((flat % per_circuit) / n_machines) + ", machine " +
          std::to_string(flat % n_machines));
    }
  }
  return merged;
}

sweep::Result run_sharded(const std::vector<sweep::CircuitSpec>& circuits,
                          const std::vector<std::string>& techniques,
                          const std::vector<sweep::MachineSpec>& machines,
                          std::uint32_t shard_count,
                          const sweep::Options& options,
                          const technique::Registry& registry) {
  if (shard_count == 0) throw ShardError("shard_count must be at least 1");
  if (options.cell_filter) {
    throw ShardError(
        "run_sharded owns cell partitioning and cannot compose a caller "
        "cell_filter; filter the matrix axes instead");
  }
  const util::Stopwatch stopwatch;
  const std::size_t total =
      circuits.size() * techniques.size() * machines.size();
  sweep::Result merged;
  merged.cells.resize(total);
  for (std::uint32_t index = 0; index < shard_count; ++index) {
    const CellRange owned = shard_cell_range(total, shard_count, index);
    if (owned.size() == 0) continue;
    sweep::Options shard_options = options;
    shard_options.cell_filter = [owned](std::size_t flat) {
      return owned.contains(flat);
    };
    if (shard_options.provenance.empty()) {
      shard_options.provenance = "shard-" + std::to_string(index) + "/" +
                                 std::to_string(shard_count) + "@" +
                                 local_host_name();
    }
    sweep::Result swept =
        sweep::run(circuits, techniques, machines, shard_options, registry);
    for (std::size_t flat = owned.begin; flat < owned.end; ++flat) {
      merged.cells[flat] = std::move(swept.cells[flat]);
    }
    merged.placement_cache_hits += swept.placement_cache_hits;
    merged.placement_cache_misses += swept.placement_cache_misses;
    merged.transpile_cache_hits += swept.transpile_cache_hits;
    merged.transpile_cache_misses += swept.transpile_cache_misses;
    merged.placement_disk_hits += swept.placement_disk_hits;
    merged.result_cache_hits += swept.result_cache_hits;
    merged.result_cache_misses += swept.result_cache_misses;
    merged.anneals += swept.anneals;
    merged.threads_used = std::max(merged.threads_used, swept.threads_used);
  }
  merged.wall_seconds = stopwatch.seconds();
  return merged;
}

std::string canonical_bytes(const sweep::Result& result) {
  Writer writer;
  writer.u64(result.cells.size());
  for (const auto& cell : result.cells) encode_cell_canonical(writer, cell);
  return writer.take();
}

static_assert(util::lists_every_field<ShardRun, 1>());

std::string serialize_shard_run(const ShardRun& run) {
  Writer writer;
  cache::write_fields(writer, run);
  writer.u64(run.cells.size());
  for (const auto& cell : run.cells) encode_cell(writer, cell);
  return frame_payload(FileKind::kShardRun, writer.take());
}

ShardRun parse_shard_run(std::string_view bytes) {
  const std::string_view payload =
      unframe_payload(FileKind::kShardRun, bytes);
  Reader reader(payload);
  ShardRun run;
  cache::read_fields(reader, run);
  if (run.shard_count == 0 || run.shard_index >= run.shard_count) {
    throw ShardError("shard run has shard_index outside [0, shard_count)");
  }
  const std::size_t total =
      checked_total_cells(run.n_circuits, run.n_techniques, run.n_machines);
  const std::size_t n_cells = reader.length(1);
  if (n_cells > total) {
    throw ShardError("shard run carries more cells than its matrix holds");
  }
  run.cells.reserve(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    // Qualified: ADL on cache::Reader would also find cache::decode_cell
    // (the CachedCell codec) and make the call ambiguous.
    sweep::Cell cell = shard::decode_cell(reader);
    if (cell.circuit_index >= run.n_circuits ||
        cell.technique_index >= run.n_techniques ||
        cell.machine_index >= run.n_machines) {
      throw ShardError("shard run cell indexes outside its matrix");
    }
    run.cells.push_back(std::move(cell));
  }
  reader.expect_end();
  return run;
}

}  // namespace parallax::shard
