#include "cache/fingerprint.hpp"

#include <bit>

#include "cache/fields.hpp"
#include "cache/serialize.hpp"

namespace parallax::cache {

void Fingerprinter::u32(std::uint32_t v) noexcept {
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  hash_.update(bytes, sizeof(bytes));
}

void Fingerprinter::u64(std::uint64_t v) noexcept {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  hash_.update(bytes, sizeof(bytes));
}

void Fingerprinter::f64(double v) noexcept {
  u64(std::bit_cast<std::uint64_t>(v));
}

void Fingerprinter::str(std::string_view s) noexcept {
  u64(s.size());
  hash_.update(s.data(), s.size());
}

void Fingerprinter::digest(const Digest128& d) noexcept {
  u64(d.hi);
  u64(d.lo);
}

namespace {

// feed appends a content type's canonical bytes to an ongoing fingerprint,
// and write_fields (cache/fields.hpp) an options struct's, so composite keys
// hash one flat byte stream instead of nesting digests.

// Circuits and topologies already have one canonical byte layout — the
// serialization codec. Hashing those exact bytes (length-prefixed, so the
// stream stays self-delimiting inside composite keys) keeps a single
// definition of "the content" for both addressing and storage: a field
// added to Gate or Topology lands in keys and payloads together.

void feed(Fingerprinter& fp, const circuit::Circuit& circuit) {
  Writer writer;
  encode(writer, circuit);
  fp.str(writer.bytes());
}

void feed(Fingerprinter& fp, const circuit::InteractionGraph& graph) {
  fp.i32(graph.n_qubits());
  fp.u64(graph.edges().size());
  for (const circuit::WeightedEdge& e : graph.edges()) {
    fp.i32(e.a);
    fp.i32(e.b);
    fp.i64(e.weight);
  }
}

void feed(Fingerprinter& fp, const placement::Topology& topology) {
  fp.str(serialize_topology(topology));
}

/// Domain tags keep key spaces disjoint: a placement key can never equal a
/// result key even for pathologically similar inputs.
enum class Domain : std::uint8_t {
  kCircuit = 1,
  kHardware = 2,
  kGraphineOptions = 3,
  kTopology = 4,
  kCompileOptions = 5,
  kPlacementKey = 6,
  kResultKey = 7,
  kFileContent = 8,
  kInteractionGraph = 9,
};

Fingerprinter begin(Domain domain) {
  Fingerprinter fp;
  fp.u8(static_cast<std::uint8_t>(domain));
  return fp;
}

/// Schema-seeded raw-byte hash opened with a domain tag; file-content
/// digests hash the byte stream directly (no length prefix — the stream is
/// the entire input, so self-delimiting framing buys nothing).
util::Hash128 begin_raw(Domain domain) {
  util::Hash128 hash(kFingerprintSchema);
  const auto tag = static_cast<std::uint8_t>(domain);
  hash.update(&tag, 1);
  return hash;
}

}  // namespace

// --- streaming content fingerprints -------------------------------------------

HashingStreamBuf::HashingStreamBuf(std::streambuf* source)
    : source_(source), hash_(begin_raw(Domain::kFileContent)) {}

Digest128 HashingStreamBuf::content_digest() const noexcept {
  return hash_.digest();
}

HashingStreamBuf::int_type HashingStreamBuf::underflow() {
  if (!have_pending_) {
    const int_type c = source_->sbumpc();
    if (traits_type::eq_int_type(c, traits_type::eof())) return c;
    pending_ = traits_type::to_char_type(c);
    have_pending_ = true;
    hash_.update(&pending_, 1);
    ++n_;
  }
  return traits_type::to_int_type(pending_);
}

HashingStreamBuf::int_type HashingStreamBuf::uflow() {
  const int_type c = underflow();
  have_pending_ = false;
  return c;
}

std::streamsize HashingStreamBuf::xsgetn(char_type* s, std::streamsize n) {
  std::streamsize got = 0;
  if (n > 0 && have_pending_) {
    *s++ = pending_;
    have_pending_ = false;
    ++got;
    --n;
  }
  if (n > 0) {
    const std::streamsize direct = source_->sgetn(s, n);
    if (direct > 0) {
      hash_.update(s, static_cast<std::size_t>(direct));
      n_ += static_cast<std::uint64_t>(direct);
      got += direct;
    }
  }
  return got;
}

Digest128 fingerprint_stream(std::istream& in) {
  util::Hash128 hash = begin_raw(Domain::kFileContent);
  char buf[std::size_t{1} << 16];
  std::streambuf* source = in.rdbuf();
  for (;;) {
    const std::streamsize got =
        source->sgetn(buf, static_cast<std::streamsize>(sizeof buf));
    if (got <= 0) break;
    hash.update(buf, static_cast<std::size_t>(got));
  }
  return hash.digest();
}

Digest128 fingerprint(const circuit::Circuit& circuit) {
  Fingerprinter fp = begin(Domain::kCircuit);
  feed(fp, circuit);
  return fp.finish();
}

Digest128 fingerprint(const hardware::HardwareConfig& config) {
  Fingerprinter fp = begin(Domain::kHardware);
  write_fields(fp, config);
  return fp.finish();
}

Digest128 fingerprint(const placement::GraphineOptions& options) {
  Fingerprinter fp = begin(Domain::kGraphineOptions);
  write_fields(fp, options);
  return fp.finish();
}

Digest128 fingerprint(const placement::Topology& topology) {
  Fingerprinter fp = begin(Domain::kTopology);
  feed(fp, topology);
  return fp.finish();
}

Digest128 fingerprint(const circuit::InteractionGraph& graph) {
  Fingerprinter fp = begin(Domain::kInteractionGraph);
  feed(fp, graph);
  return fp.finish();
}

Digest128 fingerprint(const pipeline::CompileOptions& options) {
  Fingerprinter fp = begin(Domain::kCompileOptions);
  write_fields(fp, options);
  return fp.finish();
}

Digest128 placement_key(const Digest128& circuit_fingerprint,
                        const placement::GraphineOptions& options) {
  Fingerprinter fp = begin(Domain::kPlacementKey);
  fp.digest(circuit_fingerprint);
  write_fields(fp, options);
  return fp.finish();
}

Digest128 result_key(const Digest128& circuit_fingerprint,
                     std::string_view technique,
                     const std::vector<std::string>& pass_names,
                     const hardware::HardwareConfig& config,
                     const pipeline::CompileOptions& options,
                     const noise::NoiseOptions* noise,
                     const shots::ShotOptions* shots) {
  Fingerprinter fp = begin(Domain::kResultKey);
  fp.digest(circuit_fingerprint);
  fp.str(technique);
  // The pass list, not just the name: a custom registry may rebind a name to
  // a different pipeline, which must not hit the old entries.
  fp.u64(pass_names.size());
  for (const auto& name : pass_names) fp.str(name);
  write_fields(fp, config);
  write_fields(fp, options);
  fp.boolean(noise != nullptr);
  if (noise != nullptr) write_fields(fp, *noise);
  fp.boolean(shots != nullptr);
  if (shots != nullptr) write_fields(fp, *shots);
  return fp.finish();
}

}  // namespace parallax::cache
