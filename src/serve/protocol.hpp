// Wire protocol for the sweep-serving layer.
//
// Requests travel client -> server as newline-terminated text lines, so a
// request stream is greppable, scriptable (`printf ... | parallax serve`),
// and trivially framed:
//   SUBMIT <id> <hex>     submit a sweep; <hex> is the framed, checksummed
//                         shard/spec.hpp sweep-spec serialization
//                         (serialize_sweep_spec) in lowercase hex
//   CANCEL <id>           cooperatively cancel an in-flight request
//   STATS <id>            query session-wide accounting (requests served,
//                         cells executed, cache hit/anneal counters, and
//                         per-client rows since v3)
//   STOP <id>             gracefully drain the whole session: the listener
//                         stops accepting, in-flight tickets are cancelled,
//                         every connection's done frames flush, the socket
//                         file is unlinked; acknowledged with a kDone frame
//   QUIT                  stop this connection after draining its requests
//
// Responses travel server -> client as length-prefixed binary frames, each
// the 32-byte cache/envelope.hpp header (magic, version, type, payload size,
// 64-bit payload checksum) followed by the payload. The payload opens with
// the 8-byte request id, so the checksum covers it; the rest is by type:
//   kCell   one completed sweep cell (shard::encode_cell bytes), streamed
//           as it finishes — completion order, not matrix order
//   kDone   the request's completion summary; exactly one per request,
//           after its last kCell frame
//   kStats  the session-wide accounting snapshot answering a STATS line
//   kError  a rejected request line / unknown id / service failure; the
//           connection survives (request id 0 when the line was too
//           malformed to carry one)
//
// Malformed bytes in either direction throw ServeError (or cache::ReadError
// from the nested codecs); the server converts per-line failures into
// kError frames, while clients treat any response-side violation as fatal
// for the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "shard/spec.hpp"
#include "sweep/sweep.hpp"
#include "cache/envelope.hpp"
#include "util/fields.hpp"

namespace parallax::serve {

/// Protocol-level failure: malformed frames, checksum mismatches, broken
/// connections, or a server-reported request failure surfaced by a client.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bump to retire every peer speaking an older framing (encoding change).
/// v2: STATS request verb + kStats response frame.
/// v3: multi-tenant farm — per-client rows in the kStats payload and the
///     STOP (graceful session drain) request verb.
/// v4: frames use the shared 32-byte envelope; the request id moved from
///     the header into the first 8 payload bytes (frame sizes unchanged).
inline constexpr std::uint32_t kServeVersion = 4;

enum class FrameType : std::uint32_t {
  kCell = 1,
  kDone = 2,
  kError = 3,
  kStats = 4,
};

/// One client's row of the kStats payload (v3). Request/cell/anneal
/// counters cover the client's *completed* requests, so summing the rows
/// reproduces the session totals exactly; the connection-level fields
/// (bytes queued, connected seconds) describe the live connection and are
/// zero once the client disconnected (rows outlive their connections —
/// accounting never vanishes with a departing peer).
struct ClientStats {
  std::uint64_t client_id = 0;
  std::uint64_t requests = 0;
  std::uint64_t cells_executed = 0;
  std::uint64_t anneals = 0;
  /// Frame bytes accepted for this client but not yet written to its
  /// socket (the backpressure quantity the per-client byte quota bounds).
  std::uint64_t bytes_queued = 0;
  double connected_seconds = 0.0;
  bool connected = false;
};

/// The one field list of ClientStats (see util/fields.hpp).
template <util::FieldsOf<ClientStats> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.client_id, o.requests, o.cells_executed, o.anneals, o.bytes_queued,
        o.connected_seconds, o.connected);
}

/// Session-wide accounting snapshot — the kStats payload. Counters cover
/// every request the service completed since it started; the cache counters
/// are the session CompilationCache's own hit/miss tallies (all zero when
/// the service runs cacheless).
struct SessionStats {
  std::uint64_t requests = 0;
  std::uint64_t cells_executed = 0;
  std::uint64_t cells_failed = 0;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  std::uint64_t placement_cache_hits = 0;
  std::uint64_t placement_cache_misses = 0;
  /// Graphine anneals the session actually paid for across all requests.
  std::uint64_t anneals = 0;
  std::uint64_t threads = 0;
  bool cache_enabled = false;
  double uptime_seconds = 0.0;
  /// v3: one row per client the session has ever served, ascending
  /// client_id. The request/cell/anneal columns sum to the totals above.
  std::vector<ClientStats> clients;
};

/// The field list of SessionStats (see util/fields.hpp) but for `clients`,
/// whose rows the kStats codec writes after it.
template <util::FieldsOf<SessionStats> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.requests, o.cells_executed, o.cells_failed, o.result_cache_hits,
        o.result_cache_misses, o.placement_cache_hits,
        o.placement_cache_misses, o.anneals, o.threads, o.cache_enabled,
        o.uptime_seconds);
}

/// Per-request completion summary — the kDone payload.
struct Summary {
  std::uint64_t total_cells = 0;
  /// Cells that actually ran (cache hits and failed cells included).
  std::uint64_t executed_cells = 0;
  std::uint64_t failed_cells = 0;
  /// Cells never started because the request was cancelled.
  std::uint64_t cancelled_cells = 0;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  std::uint64_t placement_disk_hits = 0;
  /// Graphine anneals this request actually paid for — 0 for a request
  /// fully served from the session cache.
  std::uint64_t anneals = 0;
  bool cancelled = false;
  double wall_seconds = 0.0;
  /// Non-empty when the request failed as a whole (unknown technique,
  /// service shutdown) — per-cell compile errors live in the cells instead.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// The one field list of Summary (see util/fields.hpp).
template <util::FieldsOf<Summary> Options, typename Visit>
constexpr void for_each_field(Options&& o, Visit&& visit) {
  visit(o.total_cells, o.executed_cells, o.failed_cells, o.cancelled_cells,
        o.result_cache_hits, o.result_cache_misses, o.placement_disk_hits,
        o.anneals, o.cancelled, o.wall_seconds, o.error);
}

// --- request lines (client -> server) -----------------------------------------

struct RequestLine {
  enum class Verb { kSubmit, kCancel, kStats, kStop, kQuit };
  Verb verb = Verb::kQuit;
  std::uint64_t id = 0;
  /// kSubmit only.
  shard::SweepSpec spec;
};

[[nodiscard]] std::string submit_line(std::uint64_t id,
                                      const shard::SweepSpec& spec);
[[nodiscard]] std::string cancel_line(std::uint64_t id);
[[nodiscard]] std::string stats_line(std::uint64_t id);
[[nodiscard]] std::string stop_line(std::uint64_t id);
[[nodiscard]] std::string quit_line();

/// Parses one request line (no trailing newline). Throws ServeError on an
/// unknown verb, malformed id, or bad hex, and cache::ReadError /
/// shard::ShardError from the spec payload itself.
[[nodiscard]] RequestLine parse_request_line(std::string_view line);

// --- response frames (server -> client) ---------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = cache::kEnvelopeHeaderBytes;

struct FrameHeader {
  FrameType type = FrameType::kError;
  /// Payload bytes that follow the header, request id included.
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};

/// One decoded response frame; the payload field matching `type` is set.
struct Frame {
  FrameType type = FrameType::kError;
  std::uint64_t request_id = 0;
  sweep::Cell cell;     // kCell
  Summary summary;      // kDone
  SessionStats stats;   // kStats
  std::string message;  // kError
};

[[nodiscard]] std::string cell_frame(std::uint64_t request_id,
                                     const sweep::Cell& cell);
[[nodiscard]] std::string done_frame(std::uint64_t request_id,
                                     const Summary& summary);
[[nodiscard]] std::string stats_frame(std::uint64_t request_id,
                                      const SessionStats& stats);
[[nodiscard]] std::string error_frame(std::uint64_t request_id,
                                      std::string_view message);

/// Parses exactly kFrameHeaderBytes of header. Throws ServeError on bad
/// magic, version drift, an unknown type, or an implausible payload size.
[[nodiscard]] FrameHeader parse_frame_header(std::string_view bytes);
/// Validates the payload against its header (size, checksum) and decodes
/// the request id and the typed body.
[[nodiscard]] Frame decode_frame(const FrameHeader& header,
                                 std::string_view payload);

// --- helpers ------------------------------------------------------------------

[[nodiscard]] std::string hex_encode(std::string_view bytes);
/// Strict: even length, hex digits only. nullopt otherwise.
[[nodiscard]] std::optional<std::string> hex_decode(std::string_view hex);

/// Full write with EINTR retry; uses send(MSG_NOSIGNAL) on sockets so a
/// vanished peer is an error return, never a SIGPIPE kill.
[[nodiscard]] bool write_all(int fd, std::string_view bytes);
/// Appends exactly `n` bytes from fd to `out`; false on EOF or error.
[[nodiscard]] bool read_exact(int fd, std::string& out, std::size_t n);

}  // namespace parallax::serve
