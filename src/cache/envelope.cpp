#include "cache/envelope.hpp"

#include "cache/serialize.hpp"
#include "util/hash.hpp"

namespace parallax::cache {

std::string Envelope::seal(std::uint32_t kind,
                           std::string_view payload) const {
  Writer writer;
  writer.u64(magic_);
  writer.u32(version_);
  writer.u32(kind);
  writer.u64(payload.size());
  writer.u64(util::checksum64(payload.data(), payload.size()));
  return writer.take().append(payload);
}

EnvelopeHeader Envelope::read_header(std::string_view bytes) const {
  if (bytes.size() != kEnvelopeHeaderBytes) fail("header has the wrong size");
  Reader reader(bytes);
  if (reader.u64() != magic_) fail("has the wrong magic");
  if (reader.u32() != version_) fail("was written by an incompatible version");
  // Braced initializers evaluate left to right: kind, size, checksum.
  const EnvelopeHeader header{reader.u32(), reader.u64(), reader.u64()};
  if (header.size > kMaxEnvelopePayloadBytes) {
    fail("declares an implausibly large payload");
  }
  return header;
}

void Envelope::check_payload(const EnvelopeHeader& header,
                             std::string_view payload) const {
  if (payload.size() != header.size) fail("payload size mismatch");
  if (util::checksum64(payload.data(), payload.size()) != header.checksum) {
    fail("payload checksum mismatch");
  }
}

std::string_view Envelope::open(std::uint32_t kind,
                                std::string_view bytes) const {
  if (bytes.size() < kEnvelopeHeaderBytes) fail("ends before its header");
  const EnvelopeHeader header =
      read_header(bytes.substr(0, kEnvelopeHeaderBytes));
  if (header.kind != kind) fail("has the wrong kind for this operation");
  const std::string_view payload = bytes.substr(kEnvelopeHeaderBytes);
  check_payload(header, payload);
  return payload;
}

void Envelope::fail(const char* what) const {
  throw EnvelopeError(std::string(noun_) + ' ' + what);
}

}  // namespace parallax::cache
