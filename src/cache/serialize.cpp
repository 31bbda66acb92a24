#include "cache/serialize.hpp"

#include <bit>
#include <cstring>

#include "cache/fields.hpp"

namespace parallax::cache {

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>(v >> (8 * i)));
  }
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u64(s.size());
  bytes_.append(s.data(), s.size());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw ReadError("cache payload truncated");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw ReadError("cache payload has a malformed bool");
  return v != 0;
}

std::string Reader::str() {
  const std::uint64_t size = u64();
  if (size > remaining()) throw ReadError("cache payload string overruns");
  std::string s(data_.substr(pos_, static_cast<std::size_t>(size)));
  pos_ += static_cast<std::size_t>(size);
  return s;
}

std::size_t Reader::length(std::size_t min_element_bytes) {
  const std::uint64_t count = u64();
  if (min_element_bytes != 0 &&
      count > remaining() / min_element_bytes) {
    throw ReadError("cache payload length overruns");
  }
  return static_cast<std::size_t>(count);
}

void Reader::expect_end() const {
  if (remaining() != 0) {
    throw ReadError("cache payload has trailing bytes");
  }
}

// --- codecs -------------------------------------------------------------------

void encode(Writer& writer, const placement::Topology& topology) {
  writer.u64(topology.positions.size());
  for (const auto& point : topology.positions) {
    writer.f64(point.x);
    writer.f64(point.y);
  }
  writer.f64(topology.interaction_radius);
}

placement::Topology decode_topology(Reader& reader) {
  placement::Topology topology;
  const std::size_t count = reader.length(16);
  topology.positions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    geom::Point point;
    point.x = reader.f64();
    point.y = reader.f64();
    topology.positions.push_back(point);
  }
  topology.interaction_radius = reader.f64();
  return topology;
}

void encode(Writer& writer, const placement::PhysicalTopology& topology) {
  writer.i32(topology.grid.side());
  writer.f64(topology.grid.pitch());
  writer.u64(topology.sites.size());
  for (const auto& site : topology.sites) {
    writer.i32(site.col);
    writer.i32(site.row);
  }
  writer.f64(topology.interaction_radius_um);
  writer.f64(topology.blockade_radius_um);
}

placement::PhysicalTopology decode_physical_topology(Reader& reader) {
  placement::PhysicalTopology topology;
  const std::int32_t side = reader.i32();
  const double pitch = reader.f64();
  if (side < 1 || !(pitch > 0.0)) {
    throw ReadError("cache payload has a malformed grid");
  }
  topology.grid = geom::Grid(side, pitch);
  const std::size_t count = reader.length(8);
  topology.sites.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    geom::Cell cell;
    cell.col = reader.i32();
    cell.row = reader.i32();
    topology.sites.push_back(cell);
  }
  topology.interaction_radius_um = reader.f64();
  topology.blockade_radius_um = reader.f64();
  return topology;
}

void encode(Writer& writer, const circuit::Circuit& circuit) {
  writer.i32(circuit.n_qubits());
  writer.str(circuit.name());
  writer.u64(circuit.size());
  for (const auto& gate : circuit.gates()) {
    writer.u8(static_cast<std::uint8_t>(gate.type));
    writer.i32(gate.q[0]);
    writer.i32(gate.q[1]);
    writer.f64(gate.theta);
    writer.f64(gate.phi);
    writer.f64(gate.lambda);
  }
}

circuit::Circuit decode_circuit(Reader& reader) {
  const std::int32_t n_qubits = reader.i32();
  std::string name = reader.str();
  if (n_qubits < 0) throw ReadError("cache payload has a malformed circuit");
  circuit::Circuit circuit(n_qubits, std::move(name));
  const std::size_t count = reader.length(33);
  for (std::size_t i = 0; i < count; ++i) {
    circuit::Gate gate;
    const std::uint8_t type = reader.u8();
    if (type > static_cast<std::uint8_t>(circuit::GateType::kBarrier)) {
      throw ReadError("cache payload has an unknown gate type");
    }
    gate.type = static_cast<circuit::GateType>(type);
    gate.q[0] = reader.i32();
    gate.q[1] = reader.i32();
    gate.theta = reader.f64();
    gate.phi = reader.f64();
    gate.lambda = reader.f64();
    try {
      circuit.append(gate);  // re-validates qubit indices against n_qubits
    } catch (const std::logic_error& error) {
      throw ReadError(std::string("cache payload has a malformed gate: ") +
                      error.what());
    }
  }
  return circuit;
}

namespace {

void encode_layer(Writer& writer, const compiler::Layer& layer) {
  writer.u64(layer.gates.size());
  for (const std::size_t gate : layer.gates) writer.u64(gate);
  writer.f64(layer.move_distance_um);
  writer.f64(layer.return_distance_um);
  writer.i32(layer.aod_moves);
  writer.i32(layer.trap_changes);
  writer.f64(layer.duration_us);
  writer.u64(layer.positions.size());
  for (const auto& point : layer.positions) {
    writer.f64(point.x);
    writer.f64(point.y);
  }
}

compiler::Layer decode_layer(Reader& reader) {
  compiler::Layer layer;
  const std::size_t n_gates = reader.length(8);
  layer.gates.reserve(n_gates);
  for (std::size_t i = 0; i < n_gates; ++i) {
    layer.gates.push_back(static_cast<std::size_t>(reader.u64()));
  }
  layer.move_distance_um = reader.f64();
  layer.return_distance_um = reader.f64();
  layer.aod_moves = reader.i32();
  layer.trap_changes = reader.i32();
  layer.duration_us = reader.f64();
  const std::size_t n_positions = reader.length(16);
  layer.positions.reserve(n_positions);
  for (std::size_t i = 0; i < n_positions; ++i) {
    geom::Point point;
    point.x = reader.f64();
    point.y = reader.f64();
    layer.positions.push_back(point);
  }
  return layer;
}

}  // namespace

void encode(Writer& writer, const compiler::CompileResult& result) {
  writer.str(result.technique);
  encode(writer, result.circuit);
  encode(writer, result.topology);
  writer.u64(result.layers.size());
  for (const auto& layer : result.layers) encode_layer(writer, layer);
  writer.u64(result.in_aod.size());
  for (const std::int8_t flag : result.in_aod) {
    writer.u8(static_cast<std::uint8_t>(flag));
  }
  write_fields(writer, result.stats);
  writer.f64(result.runtime_us);
  // pass_timings intentionally omitted — see the header contract.
}

compiler::CompileResult decode_result(Reader& reader) {
  compiler::CompileResult result;
  result.technique = reader.str();
  result.circuit = decode_circuit(reader);
  result.topology = decode_physical_topology(reader);
  const std::size_t n_layers = reader.length(36);
  result.layers.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    result.layers.push_back(decode_layer(reader));
  }
  const std::size_t n_aod = reader.length(1);
  result.in_aod.reserve(n_aod);
  for (std::size_t i = 0; i < n_aod; ++i) {
    result.in_aod.push_back(static_cast<std::int8_t>(reader.u8()));
  }
  read_fields(reader, result.stats);
  result.runtime_us = reader.f64();
  return result;
}

void encode(Writer& writer, const CachedCell& cell) {
  encode(writer, cell.result);
  writer.boolean(cell.has_success_probability);
  writer.f64(cell.success_probability);
  writer.boolean(cell.has_shot_plans);
  writer.u64(cell.shot_plans.size());
  for (const auto& plan : cell.shot_plans) write_fields(writer, plan);
}

CachedCell decode_cell(Reader& reader) {
  CachedCell cell;
  cell.result = decode_result(reader);
  cell.has_success_probability = reader.boolean();
  cell.success_probability = reader.f64();
  cell.has_shot_plans = reader.boolean();
  cell.shot_plans.resize(reader.length(24));
  for (auto& plan : cell.shot_plans) read_fields(reader, plan);
  return cell;
}

std::string serialize_topology(const placement::Topology& topology) {
  Writer writer;
  encode(writer, topology);
  return writer.take();
}

placement::Topology parse_topology(std::string_view bytes) {
  Reader reader(bytes);
  placement::Topology topology = decode_topology(reader);
  reader.expect_end();
  return topology;
}

std::string serialize_result(const compiler::CompileResult& result) {
  Writer writer;
  encode(writer, result);
  return writer.take();
}

compiler::CompileResult parse_result(std::string_view bytes) {
  Reader reader(bytes);
  compiler::CompileResult result = decode_result(reader);
  reader.expect_end();
  return result;
}

std::string serialize_cell(const CachedCell& cell) {
  Writer writer;
  encode(writer, cell);
  return writer.take();
}

CachedCell parse_cell(std::string_view bytes) {
  Reader reader(bytes);
  CachedCell cell = decode_cell(reader);
  reader.expect_end();
  return cell;
}

}  // namespace parallax::cache
