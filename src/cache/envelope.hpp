// The one file/wire envelope shared by cache entries, shard spec and run
// files, and serve response frames: a 32-byte little-endian header
//
//   magic u64 | version u32 | kind u32 | payload size u64 | checksum64 u64
//
// followed by the payload. Each format names its own magic and version;
// everything else — the encoder, the header checks, the payload-size cap and
// the checksum — lives here once. Any mismatch throws EnvelopeError, which
// each caller maps to its own contract (the store to a miss, the shard layer
// to ReadError, serve to ServeError).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace parallax::cache {

class EnvelopeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::size_t kEnvelopeHeaderBytes = 32;
/// Payloads larger than this are rejected before anyone allocates for them:
/// far beyond any real entry or frame, small enough that a corrupt size
/// field cannot ask a reader to buffer terabytes.
inline constexpr std::uint64_t kMaxEnvelopePayloadBytes = 1ull << 33;

/// The decoded header of one envelope.
struct EnvelopeHeader {
  std::uint32_t kind = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

/// One envelope format: its magic, its version, and the noun its error
/// messages use ("cache entry", "shard file", "serve frame").
class Envelope {
 public:
  constexpr Envelope(std::uint64_t magic, std::uint32_t version,
                     const char* noun) noexcept
      : magic_(magic), version_(version), noun_(noun) {}

  /// Header plus payload.
  [[nodiscard]] std::string seal(std::uint32_t kind,
                                 std::string_view payload) const;

  /// Checks exactly kEnvelopeHeaderBytes of header: magic, version and the
  /// payload-size cap. The kind is returned for the caller to dispatch on.
  [[nodiscard]] EnvelopeHeader read_header(std::string_view bytes) const;
  /// Checks a payload against the header it arrived under: size, checksum.
  void check_payload(const EnvelopeHeader& header,
                     std::string_view payload) const;
  /// Validates a whole envelope of the expected kind and returns a view of
  /// its payload (into `bytes`).
  [[nodiscard]] std::string_view open(std::uint32_t kind,
                                      std::string_view bytes) const;

 private:
  [[noreturn]] void fail(const char* what) const;

  std::uint64_t magic_;
  std::uint32_t version_;
  const char* noun_;
};

}  // namespace parallax::cache
