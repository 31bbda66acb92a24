// Field-list codecs: one writer serves the fingerprint (cache::Fingerprinter),
// the codecs (cache::Writer) and the sweep's memo keys, because all three
// walk the same for_each_field list of each struct. Both sinks
// have the same method set (u8/u32/u64/i32/i64/f64/boolean/str), each field
// is written as its fixed-width type, and each enum as its underlying type.
// Every field is written every time: there is no default-dependent branch
// that could let one option set's bytes spell another's.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "cache/serialize.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "parallax/aod_selection.hpp"
#include "parallax/scheduler.hpp"
#include "pipeline/pipeline.hpp"
#include "placement/discretize.hpp"
#include "placement/graphine.hpp"
#include "shots/parallelize.hpp"
#include "util/fields.hpp"
#include "util/hash.hpp"

namespace parallax::cache {

template <typename Sink, typename F>
void write_field(Sink& sink, const F& value) {
  if constexpr (std::is_enum_v<F>) {
    write_field(sink, static_cast<std::underlying_type_t<F>>(value));
  } else if constexpr (std::same_as<F, bool>) {
    sink.boolean(value);
  } else if constexpr (std::same_as<F, std::uint8_t>) {
    sink.u8(value);
  } else if constexpr (std::same_as<F, std::int32_t>) {
    sink.i32(value);
  } else if constexpr (std::same_as<F, std::uint32_t>) {
    sink.u32(value);
  } else if constexpr (std::same_as<F, std::int64_t>) {
    sink.i64(value);
  } else if constexpr (std::same_as<F, std::uint64_t>) {
    sink.u64(value);
  } else if constexpr (std::same_as<F, double>) {
    sink.f64(value);
  } else if constexpr (std::same_as<F, util::Digest128>) {
    sink.u64(value.hi);
    sink.u64(value.lo);
  } else {
    static_assert(std::same_as<F, std::string>, "field type has no encoding");
    sink.str(value);
  }
}

template <typename F>
void read_field(Reader& reader, F& value) {
  if constexpr (std::is_enum_v<F>) {
    std::underlying_type_t<F> raw{};
    read_field(reader, raw);
    value = static_cast<F>(raw);
  } else if constexpr (std::same_as<F, bool>) {
    value = reader.boolean();
  } else if constexpr (std::same_as<F, std::uint8_t>) {
    value = reader.u8();
  } else if constexpr (std::same_as<F, std::int32_t>) {
    value = reader.i32();
  } else if constexpr (std::same_as<F, std::uint32_t>) {
    value = reader.u32();
  } else if constexpr (std::same_as<F, std::int64_t>) {
    value = reader.i64();
  } else if constexpr (std::same_as<F, std::uint64_t>) {
    value = reader.u64();
  } else if constexpr (std::same_as<F, double>) {
    value = reader.f64();
  } else if constexpr (std::same_as<F, util::Digest128>) {
    value.hi = reader.u64();
    value.lo = reader.u64();
  } else {
    static_assert(std::same_as<F, std::string>, "field type has no decoding");
    value = reader.str();
  }
}

/// Writes every field of a listed struct, in list order.
template <typename Sink, typename T>
void write_fields(Sink& sink, const T& value) {
  for_each_field(value, [&sink](const auto&... fields) {
    (write_field(sink, fields), ...);
  });
}

/// Reads every field of a listed struct, in list order.
template <typename T>
void read_fields(Reader& reader, T& value) {
  for_each_field(value, [&reader](auto&... fields) {
    (read_field(reader, fields), ...);
  });
}

/// The CompileOptions composite: every per-stage list, then the flags, the
/// preset topology (length-prefixed codec bytes) and the master seed. The
/// runtime-only anneal counter is attribution, not identity, and is skipped.
template <typename Sink>
void write_fields(Sink& sink, const pipeline::CompileOptions& options) {
  write_fields(sink, options.transpile);
  write_fields(sink, options.placement);
  write_fields(sink, options.discretize);
  write_fields(sink, options.scheduler);
  write_fields(sink, options.aod_selection);
  sink.boolean(options.assume_transpiled);
  sink.boolean(options.preset_topology.has_value());
  if (options.preset_topology) {
    sink.str(serialize_topology(*options.preset_topology));
  }
  sink.u64(options.seed);
  write_fields(sink, options.fidelity);
}

/// Decodes what write_fields(Sink&, const CompileOptions&) wrote. Enum
/// fields outside their enumerations throw ReadError.
inline void read_fields(Reader& reader, pipeline::CompileOptions& options) {
  read_fields(reader, options.transpile);
  read_fields(reader, options.placement);
  if (options.placement.proposal > placement::ProposalMode::kBatched) {
    throw ReadError("sweep spec has an unknown placement proposal mode");
  }
  read_fields(reader, options.discretize);
  read_fields(reader, options.scheduler);
  read_fields(reader, options.aod_selection);
  options.assume_transpiled = reader.boolean();
  if (reader.boolean()) {
    options.preset_topology = parse_topology(reader.str());
  }
  options.seed = reader.u64();
  read_fields(reader, options.fidelity);
  if (options.fidelity.model > noise::FidelityModel::kSimulated) {
    throw ReadError("sweep spec has an unknown fidelity model");
  }
}

// A member added without a visitor entry fails the build here.
static_assert(util::lists_every_field<circuit::TranspileOptions>());
static_assert(util::lists_every_field<placement::GraphineOptions>());
static_assert(util::lists_every_field<placement::DiscretizeOptions>());
static_assert(util::lists_every_field<compiler::SchedulerOptions>());
static_assert(util::lists_every_field<compiler::AodSelectionOptions>());
static_assert(util::lists_every_field<noise::FidelityOptions>());
static_assert(util::lists_every_field<noise::NoiseOptions>());
static_assert(util::lists_every_field<shots::ShotOptions>());
// HardwareConfig's display name is its one member outside the list.
static_assert(util::lists_every_field<hardware::HardwareConfig, 1>());
static_assert(util::lists_every_field<compiler::CompileStats>());
static_assert(util::lists_every_field<shots::ParallelPlan>());

}  // namespace parallax::cache
