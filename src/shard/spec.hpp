// Self-contained, serializable sweep specifications for the shard layer.
//
// A SweepSpec captures everything sweep::run needs to reproduce a cell —
// circuits (full gate lists), technique names, machines (every hardware
// field), and the deterministic subset of sweep::Options. Runtime-only
// fields (thread count, the cache handle, provenance labels, the cell
// filter) are deliberately not part of a spec: two hosts given the same
// spec bytes must produce byte-identical cells whatever their local setup.
//
// The on-disk format follows src/cache/serialize conventions: fixed-width
// little-endian fields via cache::Writer/Reader (options from their field
// lists, cache/fields.hpp), wrapped in the cache/envelope.hpp header (magic,
// spec version, kind, payload size, 64-bit checksum). Any truncation, bit
// flip, or version drift throws cache::ReadError on parse — a corrupt spec
// or shard output is rejected, never silently merged.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cache/serialize.hpp"
#include "sweep/sweep.hpp"
#include "util/hash.hpp"

namespace parallax::shard {

/// Thrown on spec-level misuse (non-serializable options, bad shard counts)
/// and merge-level integrity failures (duplicate/missing/conflicting cells,
/// outputs from different plans). Distinct from cache::ReadError, which
/// covers byte-level corruption.
class ShardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The full sweep matrix plus its deterministic options. `options` may carry
/// runtime-only fields in memory (they are ignored when serializing), but a
/// spec with a `customize` hook or a `cell_filter` cannot be serialized —
/// both change results yet cannot round-trip through bytes — and
/// serialize_sweep_spec throws ShardError for them.
struct SweepSpec {
  std::vector<sweep::CircuitSpec> circuits;
  std::vector<std::string> techniques;
  std::vector<sweep::MachineSpec> machines;
  sweep::Options options;

  [[nodiscard]] std::size_t total_cells() const noexcept {
    return circuits.size() * techniques.size() * machines.size();
  }
};

/// One shard of a plan: the whole spec plus which slice of the flat
/// circuit-major cell index space this shard owns (shard_cell_range in
/// shard.hpp). Carrying the full spec keeps every shard self-contained — a
/// host needs nothing but its .spec file and (optionally) a cache directory.
struct ShardSpec {
  SweepSpec sweep;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
};

/// Bump to retire every existing .spec / shard-output file (encoding
/// change). Old files then fail parse with a version error, never decode
/// garbage. v2: fidelity-estimator options (noise::FidelityOptions) joined
/// the spec codec; shard outputs also carry the new per-layer aod_moves.
/// v3: the placement codec carries every GraphineOptions field (proposal
/// mode, chains, window cap, portfolio entrants were dropped before).
/// v4: options are written from their field lists (cache/fields.hpp):
/// enums as their underlying type, the preset topology length-prefixed.
inline constexpr std::uint32_t kSpecVersion = 4;

// --- spec serialization -------------------------------------------------------

/// Canonical payload bytes of a sweep spec (no framing header). Equal specs
/// produce equal bytes in every process; this is what spec_digest hashes.
/// Throws ShardError if `options.customize` or `options.cell_filter` is set.
[[nodiscard]] std::string sweep_spec_payload(const SweepSpec& spec);

/// 128-bit content digest of a sweep spec. Shard outputs carry it so merge
/// can refuse to combine runs of different plans.
[[nodiscard]] util::Digest128 spec_digest(const SweepSpec& spec);

/// Framed, checksummed shard spec file bytes (what `parallax shard plan`
/// writes).
[[nodiscard]] std::string serialize_shard_spec(const ShardSpec& spec);
/// Parses and fully validates a shard spec file; throws cache::ReadError on
/// corruption/truncation/version drift and ShardError on semantic nonsense
/// (shard_index >= shard_count, empty matrix axes).
[[nodiscard]] ShardSpec parse_shard_spec(std::string_view bytes);

// --- framing helpers (shared by spec and shard-run files) ---------------------

/// File kinds folded into the frame header.
enum class FileKind : std::uint32_t {
  kShardSpec = 1,
  kShardRun = 2,
  /// A whole (unsharded) sweep spec: the serve layer's request payload and
  /// what `parallax serve spec` writes.
  kSweepSpec = 3,
};

/// Framed, checksummed whole-sweep spec bytes — the request format the
/// serve layer accepts (and the `parallax serve spec` file format). Same
/// integrity contract as shard specs: any truncation, bit flip, or version
/// drift throws cache::ReadError on parse. Throws ShardError for
/// non-serializable options (customize / cell_filter).
[[nodiscard]] std::string serialize_sweep_spec(const SweepSpec& spec);
/// Parses and validates framed sweep-spec bytes; throws cache::ReadError on
/// corruption and ShardError on an empty matrix axis.
[[nodiscard]] SweepSpec parse_sweep_spec(std::string_view bytes);

/// Wraps payload bytes in the shard file envelope (cache/envelope.hpp).
[[nodiscard]] std::string frame_payload(FileKind kind,
                                        std::string_view payload);
/// Validates the envelope end to end and returns a view of the payload
/// inside `bytes`; throws cache::ReadError on any mismatch.
[[nodiscard]] std::string_view unframe_payload(FileKind kind,
                                               std::string_view bytes);

}  // namespace parallax::shard
