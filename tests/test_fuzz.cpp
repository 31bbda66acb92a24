// Deterministic mutation fuzzer over every decoder that reads bytes from
// outside the process: the shared envelope, cache entry files read through
// the store, sweep and shard specs, shard run outputs, every serve frame
// type, and QASM text. Valid instances are mutated by byte flips,
// truncations, extensions and size-field rewrites under fixed seeds, so a
// failure replays exactly. Every mutant must either decode or raise its
// decoder's documented error (for the store: a miss). Enveloped inputs are
// fuzzed twice: as whole files, where the checksum rejects nearly every
// mutant, and re-sealed around a mutated payload, so the decoders behind
// the checksum see corrupt bytes too.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <typeinfo>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "cache/envelope.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "qasm/lexer.hpp"
#include "qasm/stream_parser.hpp"
#include "qasm/writer.hpp"
#include "serve/protocol.hpp"
#include "shard/shard.hpp"
#include "shard/spec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
namespace pc = parallax::cache;
namespace pq = parallax::qasm;
namespace sh = parallax::shard;
namespace sv = parallax::serve;

namespace {

constexpr int kRounds = 4000;

/// One to three byte-level mutations per call, drawn from a fixed seed.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string bytes) {
    const std::uint64_t n = 1 + rng_.next_below(3);
    for (std::uint64_t i = 0; i < n; ++i) mutate_once(bytes);
    return bytes;
  }

 private:
  void mutate_once(std::string& bytes) {
    switch (rng_.next_below(4)) {
      case 0:  // flip some bits of one byte
        if (!bytes.empty()) {
          char& byte = bytes[rng_.next_below(bytes.size())];
          byte = static_cast<char>(byte ^ (1 + rng_.next_below(255)));
        }
        break;
      case 1:  // truncate
        bytes.resize(rng_.next_below(bytes.size() + 1));
        break;
      case 2:  // extend with random bytes
        for (std::uint64_t i = 1 + rng_.next_below(16); i > 0; --i) {
          bytes.push_back(static_cast<char>(rng_.next_below(256)));
        }
        break;
      default:  // rewrite a size field: the envelope's, or any u64
        rewrite_size(bytes);
        break;
    }
  }

  void rewrite_size(std::string& bytes) {
    if (bytes.size() < 8) return;
    const std::uint64_t size = bytes.size();
    const std::uint64_t values[] = {0,          1,           size - 1,
                                    size,       size + 1,    1ull << 31,
                                    1ull << 32, 1ull << 33,  (1ull << 33) + 1,
                                    1ull << 63, ~0ull};
    std::uint64_t value = values[rng_.next_below(std::size(values))];
    const std::size_t at = bytes.size() >= 24 && rng_.next_below(2) == 0
                               ? 16
                               : rng_.next_below(bytes.size() - 7);
    for (int i = 0; i < 8; ++i, value >>= 8) {
      bytes[at + i] = static_cast<char>(value & 0xff);
    }
  }

  parallax::util::Rng rng_;
};

/// Runs `decode`, which must return or throw one of `Allowed`.
template <typename... Allowed, typename Decode>
void expect_documented(const char* target, int round, Decode&& decode) {
  try {
    decode();
  } catch (const std::exception& error) {
    if (!((dynamic_cast<const Allowed*>(&error) != nullptr) || ...)) {
      ADD_FAILURE() << target << ", round " << round << ": undocumented "
                    << typeid(error).name() << ": " << error.what();
    }
  }
}

parallax::circuit::Circuit ghz(std::int32_t n, const std::string& name) {
  parallax::circuit::Circuit c(n, name);
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

sh::SweepSpec small_spec() {
  sh::SweepSpec spec;
  spec.circuits = {{"ghz5", ghz(5, "ghz5")}, {"ghz4", ghz(4, "ghz4")}};
  spec.techniques = {"parallax", "static"};
  const auto config = parallax::hardware::HardwareConfig::quera_aquila_256();
  spec.machines = {{config.name, config}};
  spec.options.compile.placement.anneal_iterations = 60;
  spec.options.compile.placement.local_search_evaluations = 40;
  spec.options.shots = parallax::shots::ShotOptions{};
  return spec;
}

const sh::ShardRun& small_run() {
  static const sh::ShardRun run = [] {
    sh::ShardSpec spec;
    spec.sweep = small_spec();
    sh::RunnerOptions runner;
    runner.n_threads = 1;
    return sh::run_shard(spec, runner);
  }();
  return run;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fuzzes a framed shard-layer file both whole and re-sealed.
template <typename Parse>
void fuzz_shard_file(const char* target, std::uint64_t seed,
                     sh::FileKind kind, const std::string& file,
                     Parse&& parse) {
  const std::string payload(sh::unframe_payload(kind, file));
  Mutator mutate(seed);
  for (int round = 0; round < kRounds; ++round) {
    const std::string whole = mutate(file);
    expect_documented<pc::ReadError, sh::ShardError>(
        target, round, [&] { (void)parse(whole); });
    const std::string resealed = sh::frame_payload(kind, mutate(payload));
    expect_documented<pc::ReadError, sh::ShardError>(
        target, round, [&] { (void)parse(resealed); });
  }
}

void decode_serve_frame(std::string_view bytes) {
  if (bytes.size() < sv::kFrameHeaderBytes) {
    (void)sv::parse_frame_header(bytes);
    return;
  }
  const sv::FrameHeader header =
      sv::parse_frame_header(bytes.substr(0, sv::kFrameHeaderBytes));
  (void)sv::decode_frame(header, bytes.substr(sv::kFrameHeaderBytes));
}

}  // namespace

TEST(Fuzz, Envelope) {
  const pc::Envelope envelope(0x5a5a5a5a5a5a5a5aULL, 7, "fuzz envelope");
  const std::string sealed = envelope.seal(3, "payload under test");
  Mutator mutate(0xe1);
  for (int round = 0; round < kRounds; ++round) {
    const std::string bytes = mutate(sealed);
    expect_documented<pc::EnvelopeError>("envelope", round, [&] {
      (void)envelope.open(3, bytes);
    });
    expect_documented<pc::EnvelopeError>("envelope header", round, [&] {
      (void)envelope.read_header(
          std::string_view(bytes).substr(0, pc::kEnvelopeHeaderBytes));
    });
  }
}

TEST(Fuzz, CacheEntryFilesDegradeToMisses) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_fuzz_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  pc::CachedCell cell;
  cell.result = small_run().cells.at(0).result;
  cell.has_shot_plans = true;
  cell.shot_plans = small_run().cells.at(0).shot_plans;
  const std::string payload = pc::serialize_cell(cell);
  const pc::Digest128 key = parallax::util::hash128("fuzz", 4);
  pc::Store writer({.directory = dir.string()});
  writer.put(pc::Kind::kResult, key, payload);
  const std::string hex = key.hex();
  const fs::path object = dir / "objects" / hex.substr(0, 2) / (hex + ".bin");
  const std::string entry = read_bytes(object);
  ASSERT_FALSE(entry.empty());

  // Whole entry files: the store answers a miss or the original payload.
  Mutator mutate(0xca);
  for (int round = 0; round < kRounds; ++round) {
    fs::create_directories(object.parent_path());
    write_bytes(object, mutate(entry));
    pc::Store reader({.directory = dir.string(), .max_memory_bytes = 0});
    const auto got = reader.get(pc::Kind::kResult, key);
    if (got) {
      EXPECT_EQ(*got, payload) << "round " << round;
    }
  }

  // Mutated payloads under a valid envelope: the cell decoder behind the
  // store turns them into misses too.
  const auto cache = pc::CompilationCache::open(
      {.directory = dir.string(), .max_memory_bytes = 0});
  for (int round = 0; round < kRounds; ++round) {
    writer.put(pc::Kind::kResult, key, mutate(payload));
    expect_documented<>("cache cell", round,
                        [&] { (void)cache->get_result(key); });
  }
  fs::remove_all(dir);
}

TEST(Fuzz, SweepSpec) {
  fuzz_shard_file("sweep spec", 0x5e, sh::FileKind::kSweepSpec,
                  sh::serialize_sweep_spec(small_spec()),
                  [](std::string_view bytes) {
                    return sh::parse_sweep_spec(bytes);
                  });
}

TEST(Fuzz, ShardSpec) {
  sh::ShardSpec spec;
  spec.sweep = small_spec();
  spec.shard_index = 1;
  spec.shard_count = 3;
  fuzz_shard_file("shard spec", 0x5f, sh::FileKind::kShardSpec,
                  sh::serialize_shard_spec(spec), [](std::string_view bytes) {
                    return sh::parse_shard_spec(bytes);
                  });
}

TEST(Fuzz, ShardRunOutput) {
  fuzz_shard_file("shard run", 0x60, sh::FileKind::kShardRun,
                  sh::serialize_shard_run(small_run()),
                  [](std::string_view bytes) {
                    return sh::parse_shard_run(bytes);
                  });
}

TEST(Fuzz, ServeFrames) {
  sv::Summary summary;
  summary.total_cells = 4;
  summary.executed_cells = 3;
  summary.error = "partial";
  sv::SessionStats stats;
  stats.requests = 2;
  stats.clients.resize(2);
  stats.clients[1].client_id = 1;
  const std::string frames[] = {
      sv::cell_frame(5, small_run().cells.at(0)),
      sv::done_frame(5, summary),
      sv::stats_frame(6, stats),
      sv::error_frame(7, "bad request line"),
  };
  Mutator mutate(0xf4);
  for (const std::string& frame : frames) {
    const sv::FrameHeader header =
        sv::parse_frame_header(frame.substr(0, sv::kFrameHeaderBytes));
    const std::string payload = frame.substr(sv::kFrameHeaderBytes);
    for (int round = 0; round < kRounds; ++round) {
      const std::string whole = mutate(frame);
      expect_documented<sv::ServeError, pc::ReadError>(
          "serve frame", round, [&] { decode_serve_frame(whole); });
      const std::string body = mutate(payload);
      const sv::FrameHeader resealed{
          header.type, body.size(),
          parallax::util::checksum64(body.data(), body.size())};
      expect_documented<sv::ServeError, pc::ReadError>(
          "serve payload", round,
          [&] { (void)sv::decode_frame(resealed, body); });
    }
  }
}

TEST(Fuzz, QasmText) {
  const std::string text =
      pq::to_qasm(parallax::bench_circuits::make_benchmark("QFT"));
  Mutator mutate(0x9a);
  for (int round = 0; round < kRounds; ++round) {
    const std::string mutant = mutate(text);
    expect_documented<pq::ParseError>("qasm", round, [&] {
      std::istringstream in(mutant);
      pq::StreamParser parser(in, "fuzz.qasm");
      pq::CircuitBuilder builder;
      const pq::StreamTotals totals = parser.run(builder);
      (void)builder.take("fuzz", totals);
    });
  }
}
