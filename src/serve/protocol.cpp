#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "cache/fields.hpp"
#include "shard/shard.hpp"
#include "util/parse.hpp"

namespace parallax::serve {

namespace {

using cache::Reader;
using cache::Writer;

constexpr cache::Envelope kServeEnvelope(0x3145565245535850ULL,  // PXSERVE1
                                         kServeVersion, "serve frame");

/// A frame payload under construction; the request id leads it.
Writer begin_payload(std::uint64_t request_id) {
  Writer writer;
  writer.u64(request_id);
  return writer;
}

std::string seal(FrameType type, const Writer& payload) {
  return kServeEnvelope.seal(static_cast<std::uint32_t>(type),
                             payload.bytes());
}

static_assert(util::lists_every_field<Summary>());
static_assert(util::lists_every_field<ClientStats>());
// SessionStats' client rows follow its list on the wire.
static_assert(util::lists_every_field<SessionStats, 1>());

void encode_session_stats(Writer& writer, const SessionStats& stats) {
  cache::write_fields(writer, stats);
  writer.u64(stats.clients.size());
  for (const ClientStats& client : stats.clients) {
    cache::write_fields(writer, client);
  }
}

SessionStats decode_session_stats(Reader& reader) {
  SessionStats stats;
  cache::read_fields(reader, stats);
  // Every row opens with its u64 client id.
  stats.clients.resize(reader.length(sizeof(std::uint64_t)));
  for (ClientStats& client : stats.clients) cache::read_fields(reader, client);
  return stats;
}

}  // namespace

std::string submit_line(std::uint64_t id, const shard::SweepSpec& spec) {
  return "SUBMIT " + std::to_string(id) + ' ' +
         hex_encode(shard::serialize_sweep_spec(spec)) + '\n';
}

std::string cancel_line(std::uint64_t id) {
  return "CANCEL " + std::to_string(id) + '\n';
}

std::string stats_line(std::uint64_t id) {
  return "STATS " + std::to_string(id) + '\n';
}

std::string stop_line(std::uint64_t id) {
  return "STOP " + std::to_string(id) + '\n';
}

std::string quit_line() { return "QUIT\n"; }

namespace {

/// Whitespace-delimited tokens over the request line, yielded as views into
/// the caller's buffer. A SUBMIT line is dominated by its spec hex — often
/// megabytes — so the parser must never copy the line (the istringstream it
/// replaced duplicated the whole buffer before reading one verb).
class LineTokenizer {
 public:
  explicit LineTokenizer(std::string_view line) : line_(line) {}

  /// The next token, or an empty view once the line is exhausted (empty
  /// tokens cannot otherwise occur).
  [[nodiscard]] std::string_view next() noexcept {
    constexpr std::string_view kSpace = " \t\r\v\f";
    const std::size_t begin = line_.find_first_not_of(kSpace, pos_);
    if (begin == std::string_view::npos) {
      pos_ = line_.size();
      return {};
    }
    std::size_t end = line_.find_first_of(kSpace, begin);
    if (end == std::string_view::npos) end = line_.size();
    pos_ = end;
    return line_.substr(begin, end - begin);
  }

  [[nodiscard]] bool exhausted() noexcept { return next().empty(); }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

}  // namespace

RequestLine parse_request_line(std::string_view line) {
  LineTokenizer tokens(line);
  const std::string_view verb = tokens.next();
  if (verb.empty()) throw ServeError("empty request line");
  RequestLine request;
  if (verb == "QUIT") {
    if (!tokens.exhausted()) throw ServeError("QUIT takes no arguments");
    request.verb = RequestLine::Verb::kQuit;
    return request;
  }
  const bool is_submit = verb == "SUBMIT";
  if (!is_submit && verb != "CANCEL" && verb != "STATS" && verb != "STOP") {
    throw ServeError("unknown request verb '" + std::string(verb) +
                     "' (use SUBMIT, CANCEL, STATS, STOP, QUIT)");
  }
  const std::string_view id_token = tokens.next();
  if (id_token.empty()) {
    throw ServeError(std::string(verb) + " needs a request id");
  }
  const auto id = util::parse_u64(id_token);
  if (!id) {
    throw ServeError(std::string(verb) + " request id '" +
                     std::string(id_token) +
                     "' is not a non-negative integer");
  }
  request.id = *id;
  if (!is_submit) {
    if (!tokens.exhausted()) {
      throw ServeError(std::string(verb) + " takes only a request id");
    }
    request.verb = verb == "CANCEL"  ? RequestLine::Verb::kCancel
                   : verb == "STATS" ? RequestLine::Verb::kStats
                                     : RequestLine::Verb::kStop;
    return request;
  }
  const std::string_view payload_token = tokens.next();
  if (payload_token.empty()) {
    throw ServeError("SUBMIT needs a hex-encoded sweep spec");
  }
  if (!tokens.exhausted()) {
    throw ServeError("SUBMIT takes exactly id and spec hex");
  }
  const auto bytes = hex_decode(payload_token);
  if (!bytes) {
    throw ServeError("SUBMIT payload is not valid hex");
  }
  request.verb = RequestLine::Verb::kSubmit;
  request.spec = shard::parse_sweep_spec(*bytes);
  return request;
}

std::string cell_frame(std::uint64_t request_id, const sweep::Cell& cell) {
  Writer writer = begin_payload(request_id);
  shard::encode_cell(writer, cell);
  return seal(FrameType::kCell, writer);
}

std::string done_frame(std::uint64_t request_id, const Summary& summary) {
  Writer writer = begin_payload(request_id);
  cache::write_fields(writer, summary);
  return seal(FrameType::kDone, writer);
}

std::string stats_frame(std::uint64_t request_id, const SessionStats& stats) {
  Writer writer = begin_payload(request_id);
  encode_session_stats(writer, stats);
  return seal(FrameType::kStats, writer);
}

std::string error_frame(std::uint64_t request_id, std::string_view message) {
  Writer writer = begin_payload(request_id);
  writer.str(message);
  return seal(FrameType::kError, writer);
}

FrameHeader parse_frame_header(std::string_view bytes) {
  cache::EnvelopeHeader envelope;
  try {
    envelope = kServeEnvelope.read_header(bytes);
  } catch (const cache::EnvelopeError& error) {
    throw ServeError(error.what());
  }
  if (envelope.kind != static_cast<std::uint32_t>(FrameType::kCell) &&
      envelope.kind != static_cast<std::uint32_t>(FrameType::kDone) &&
      envelope.kind != static_cast<std::uint32_t>(FrameType::kStats) &&
      envelope.kind != static_cast<std::uint32_t>(FrameType::kError)) {
    throw ServeError("serve frame has an unknown type");
  }
  return {static_cast<FrameType>(envelope.kind), envelope.size,
          envelope.checksum};
}

Frame decode_frame(const FrameHeader& header, std::string_view payload) {
  try {
    kServeEnvelope.check_payload({static_cast<std::uint32_t>(header.type),
                                  header.payload_size, header.checksum},
                                 payload);
  } catch (const cache::EnvelopeError& error) {
    throw ServeError(error.what());
  }
  if (payload.size() < sizeof(std::uint64_t)) {
    throw ServeError("serve frame payload lacks its request id");
  }
  Frame result;
  result.type = header.type;
  Reader reader(payload);
  result.request_id = reader.u64();
  switch (header.type) {
    case FrameType::kCell:
      result.cell = shard::decode_cell(reader);
      break;
    case FrameType::kDone:
      cache::read_fields(reader, result.summary);
      break;
    case FrameType::kStats:
      result.stats = decode_session_stats(reader);
      break;
    case FrameType::kError:
      result.message = reader.str();
      break;
  }
  reader.expect_end();
  return result;
}

std::string hex_encode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<std::string> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    bytes.push_back(static_cast<char>((hi << 4) | lo));
  }
  return bytes;
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + offset, bytes.size() - offset,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, bytes.data() + offset, bytes.size() - offset);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, std::string& out, std::size_t n) {
  const std::size_t start = out.size();
  out.resize(start + n);
  std::size_t offset = 0;
  while (offset < n) {
    const ssize_t got = ::read(fd, out.data() + start + offset, n - offset);
    if (got < 0) {
      if (errno == EINTR) continue;
      out.resize(start);
      return false;
    }
    if (got == 0) {
      out.resize(start);
      return false;
    }
    offset += static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace parallax::serve
