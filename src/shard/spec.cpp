#include "shard/spec.hpp"

#include <utility>

#include "cache/fields.hpp"
#include "cache/envelope.hpp"

namespace parallax::shard {

namespace {

using cache::Reader;
using cache::ReadError;
using cache::Writer;

constexpr cache::Envelope kShardEnvelope(0x3144524148535850ULL,  // PXSHARD1
                                         kSpecVersion, "shard file");

/// The deterministic subset of sweep::Options: the compile options, then
/// the sweep-level flags and derived-output options.
void write_spec_options(Writer& writer, const sweep::Options& options) {
  cache::write_fields(writer, options.compile);
  writer.boolean(options.share_placements);
  writer.boolean(options.compute_success_probability);
  cache::write_fields(writer, options.noise);
  writer.boolean(options.shots.has_value());
  if (options.shots) cache::write_fields(writer, *options.shots);
  writer.boolean(options.reuse_results);
}

sweep::Options read_spec_options(Reader& reader) {
  sweep::Options options;
  cache::read_fields(reader, options.compile);
  options.share_placements = reader.boolean();
  options.compute_success_probability = reader.boolean();
  cache::read_fields(reader, options.noise);
  if (reader.boolean()) cache::read_fields(reader, options.shots.emplace());
  options.reuse_results = reader.boolean();
  return options;
}

void write_machine(Writer& writer, const sweep::MachineSpec& machine) {
  writer.str(machine.name);
  writer.str(machine.config.name);
  cache::write_fields(writer, machine.config);
}

sweep::MachineSpec read_machine(Reader& reader) {
  sweep::MachineSpec machine;
  machine.name = reader.str();
  machine.config.name = reader.str();
  cache::read_fields(reader, machine.config);
  if (machine.config.grid_side < 1) {
    throw ReadError("shard spec has a malformed machine grid");
  }
  return machine;
}

}  // namespace

std::string sweep_spec_payload(const SweepSpec& spec) {
  if (spec.options.customize) {
    throw ShardError(
        "a sweep spec with a customize hook cannot be serialized; bake the "
        "customization into per-cell options or shard in-process");
  }
  if (spec.options.cell_filter) {
    throw ShardError(
        "a sweep spec must cover the whole matrix; cell ownership is the "
        "shard layer's job, not the spec's");
  }
  Writer writer;
  writer.u64(spec.circuits.size());
  for (const auto& circuit_spec : spec.circuits) {
    writer.str(circuit_spec.name);
    cache::encode(writer, circuit_spec.circuit);
  }
  writer.u64(spec.techniques.size());
  for (const auto& technique : spec.techniques) writer.str(technique);
  writer.u64(spec.machines.size());
  for (const auto& machine : spec.machines) write_machine(writer, machine);
  write_spec_options(writer, spec.options);
  return writer.take();
}

util::Digest128 spec_digest(const SweepSpec& spec) {
  const std::string payload = sweep_spec_payload(spec);
  return util::hash128(payload.data(), payload.size());
}

namespace {

SweepSpec decode_sweep_spec(Reader& reader) {
  SweepSpec spec;
  const std::size_t n_circuits = reader.length(8);
  spec.circuits.reserve(n_circuits);
  for (std::size_t i = 0; i < n_circuits; ++i) {
    sweep::CircuitSpec circuit_spec;
    circuit_spec.name = reader.str();
    circuit_spec.circuit = cache::decode_circuit(reader);
    spec.circuits.push_back(std::move(circuit_spec));
  }
  const std::size_t n_techniques = reader.length(8);
  spec.techniques.reserve(n_techniques);
  for (std::size_t i = 0; i < n_techniques; ++i) {
    spec.techniques.push_back(reader.str());
  }
  const std::size_t n_machines = reader.length(8);
  spec.machines.reserve(n_machines);
  for (std::size_t i = 0; i < n_machines; ++i) {
    spec.machines.push_back(read_machine(reader));
  }
  spec.options = read_spec_options(reader);
  return spec;
}

}  // namespace

std::string frame_payload(FileKind kind, std::string_view payload) {
  return kShardEnvelope.seal(static_cast<std::uint32_t>(kind), payload);
}

std::string_view unframe_payload(FileKind kind, std::string_view bytes) {
  try {
    return kShardEnvelope.open(static_cast<std::uint32_t>(kind), bytes);
  } catch (const cache::EnvelopeError& error) {
    throw ReadError(error.what());
  }
}

std::string serialize_sweep_spec(const SweepSpec& spec) {
  return frame_payload(FileKind::kSweepSpec, sweep_spec_payload(spec));
}

SweepSpec parse_sweep_spec(std::string_view bytes) {
  const std::string_view payload = unframe_payload(FileKind::kSweepSpec, bytes);
  Reader reader(payload);
  SweepSpec spec = decode_sweep_spec(reader);
  reader.expect_end();
  if (spec.circuits.empty() || spec.techniques.empty() ||
      spec.machines.empty()) {
    throw ShardError("sweep spec has an empty matrix axis");
  }
  return spec;
}

std::string serialize_shard_spec(const ShardSpec& spec) {
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw ShardError("shard spec has shard_index outside [0, shard_count)");
  }
  Writer writer;
  writer.str(sweep_spec_payload(spec.sweep));
  writer.u32(spec.shard_index);
  writer.u32(spec.shard_count);
  return frame_payload(FileKind::kShardSpec, writer.take());
}

ShardSpec parse_shard_spec(std::string_view bytes) {
  const std::string_view payload = unframe_payload(FileKind::kShardSpec, bytes);
  Reader reader(payload);
  const std::string sweep_payload = reader.str();
  ShardSpec spec;
  {
    Reader sweep_reader(sweep_payload);
    spec.sweep = decode_sweep_spec(sweep_reader);
    sweep_reader.expect_end();
  }
  spec.shard_index = reader.u32();
  spec.shard_count = reader.u32();
  reader.expect_end();
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw ShardError("shard spec has shard_index outside [0, shard_count)");
  }
  if (spec.sweep.circuits.empty() || spec.sweep.techniques.empty() ||
      spec.sweep.machines.empty()) {
    throw ShardError("shard spec has an empty matrix axis");
  }
  return spec;
}

}  // namespace parallax::shard
