// Golden regression: the legacy (full-vector) Graphine annealer must keep
// producing byte-for-byte the placements it produced before the delta-cost
// hot path landed — that is what lets a pre-existing warm cache replay with
// zero new anneals. Each golden is the Digest128 of the placed Topology for
// a Table III benchmark under the default sweep seed derivation
// (derive_seed(master, circuit, kPlacementSeedSalt), master 0xA77AC5).
//
// If one of these fails, the legacy anneal arithmetic changed: either revert
// the change or accept a cache-breaking release and re-record the digests
// (and say so loudly in the changelog — every cached placement invalidates).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>

#include "bench_circuits/registry.hpp"
#include "cache/fingerprint.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "placement/graphine.hpp"
#include "technique/registry.hpp"
#include "util/rng.hpp"

namespace {

struct Golden {
  const char* acronym;
  const char* digest;
};

// Recorded from the pre-delta-path annealer (identical before and after the
// hot-path change, by construction).
constexpr Golden kGoldens[] = {
    {"WST", "a40b5a9b76348f6f8ff02fb4daada8c3"},
    {"QAOA", "604db70e27888f3153dd2759dd31f8c6"},
    {"TFIM", "1a2bfd705b07a1796e30776eba6799b6"},
    {"QV", "87cbb0b544623116fe118afa62eadd6d"},
    // The remaining Table III circuits, recorded before the legacy anneal's
    // visit scale was hoisted and its crowding sum grid-filtered.
    {"ADD", "0c0002ae46727b60702322c8a42d94bf"},
    {"ADV", "1513d1cd4c3590b54b1058fc4e5ed215"},
    {"GCM", "8f66bc1e4af0d85294851c09827220c5"},
    {"HSB", "4564e7145743bfe65fd97c9e8e2398ae"},
    {"HLF", "b691c9368f0caea8d686421f03829df8"},
    {"KNN", "cf2d1158ffecd2b79cbba408a30ed850"},
    {"MLT", "a12fcb32ca03197f95d2d4249f58ce76"},
    {"QEC", "370b339ee146e43d236b7974fb35af22"},
    {"QFT", "6ced1b79c5824d1cd307760cc83cb79b"},
    {"QGAN", "df8a548cf43e3da6bcc7c446d94b83df"},
    {"SAT", "f9427205fb80b0a700c47f5fa7dd9a80"},
    {"SECA", "84d1432467c0d404b4f566ade626f6e0"},
    {"SQRT", "a5d9bb0640f233c3ed0c0d64fa273e78"},
    {"VQE", "20ee7f87095a03c37f5cbe5cd14d7a9c"},
};

}  // namespace

// Fingerprint goldens: the digests every persistent-cache key derives from.
// The circuit digest dates from before windowed placement and the streaming
// front end landed. The option digests were re-recorded when every option
// field started being fed unconditionally: the old conditional feed let
// distinct option sets share a key. A change here silently invalidates every
// existing cache directory, so it must come with a kPayloadVersion bump.
TEST(Goldens, LegacyFingerprintsAreByteStable) {
  namespace pb = parallax::bench_circuits;
  namespace pc = parallax::circuit;
  namespace pk = parallax::cache;
  namespace pp = parallax::placement;

  EXPECT_EQ(pk::fingerprint(pp::GraphineOptions{}).hex(),
            "2f5aa5b727b5dd31fdd346d57173f06a");
  EXPECT_EQ(pk::fingerprint(parallax::pipeline::CompileOptions{}).hex(),
            "3f32e749b45c029712dfe9c1d3914f74");

  const pc::Circuit wst = pc::transpile(pb::make_benchmark("WST", {}));
  const pk::Digest128 wst_fp = pk::fingerprint(wst);
  EXPECT_EQ(wst_fp.hex(), "c2606d893511fa1d1935b3f5e074933e");
  EXPECT_EQ(pk::placement_key(wst_fp, pp::GraphineOptions{}).hex(),
            "afe99a7e59e1fe01eed295786f7ed102");
}

TEST(Goldens, WindowCapIsFingerprintInvisibleWhenNormalized) {
  namespace pk = parallax::cache;
  namespace pp = parallax::placement;
  // Callers normalize max_window_qubits to 0 whenever the circuit fits one
  // window, so a normalized cap keys exactly like the default options.
  pp::GraphineOptions options;
  options.max_window_qubits = 0;
  EXPECT_EQ(pk::fingerprint(options).hex(),
            "2f5aa5b727b5dd31fdd346d57173f06a");
  options.max_window_qubits = 64;
  EXPECT_NE(pk::fingerprint(options).hex(),
            "2f5aa5b727b5dd31fdd346d57173f06a");
}

TEST(Goldens, AnnealerModesKeyDistinctlyWithoutMovingDefaults) {
  namespace pk = parallax::cache;
  namespace pp = parallax::placement;
  // Batched proposals and the raced portfolio each key their own entries,
  // while the default (legacy full-vector) options keep the golden above.
  const std::string legacy = "2f5aa5b727b5dd31fdd346d57173f06a";
  pp::GraphineOptions options;
  options.portfolio_entrants = 0;
  EXPECT_EQ(pk::fingerprint(options).hex(), legacy);

  pp::GraphineOptions batched;
  batched.proposal = pp::ProposalMode::kBatched;
  const std::string batched_hex = pk::fingerprint(batched).hex();
  EXPECT_NE(batched_hex, legacy);

  pp::GraphineOptions per_qubit;
  per_qubit.proposal = pp::ProposalMode::kPerQubit;
  EXPECT_NE(pk::fingerprint(per_qubit).hex(), batched_hex);

  pp::GraphineOptions race = batched;
  race.portfolio_entrants = 4;
  const std::string race_hex = pk::fingerprint(race).hex();
  EXPECT_NE(race_hex, legacy);
  EXPECT_NE(race_hex, batched_hex);

  race.portfolio_entrants = 2;
  EXPECT_NE(pk::fingerprint(race).hex(), race_hex);
}

TEST(Goldens, LegacyPlacementsAreByteStable) {
  namespace pb = parallax::bench_circuits;
  namespace pc = parallax::circuit;
  namespace pp = parallax::placement;
  namespace pu = parallax::util;
  ASSERT_EQ(std::size(kGoldens), pb::all_benchmarks().size());
  for (const Golden& golden : kGoldens) {
    const pc::Circuit circuit =
        pc::transpile(pb::make_benchmark(golden.acronym, {}));
    pp::GraphineOptions options;  // defaults = the legacy full-vector path
    options.seed = pu::derive_seed(0xA77AC5ULL, circuit.name(),
                                   pu::kPlacementSeedSalt);
    const pp::Topology topology =
        pp::graphine_place(pc::InteractionGraph(circuit), options);
    EXPECT_EQ(parallax::cache::fingerprint(topology).hex(), golden.digest)
        << golden.acronym;
  }
}

namespace {

/// Digest of everything a schedule charges: per layer the executed gates,
/// both movement legs, the trap changes and the duration, then the total
/// runtime. Any change to gate order, movement or timing moves it.
std::string schedule_digest(const parallax::compiler::CompileResult& result) {
  parallax::cache::Fingerprinter fp;
  fp.u64(result.layers.size());
  for (const auto& layer : result.layers) {
    fp.u64(layer.gates.size());
    for (const std::size_t gate : layer.gates) fp.u64(gate);
    fp.f64(layer.move_distance_um);
    fp.f64(layer.return_distance_um);
    fp.i32(layer.trap_changes);
    fp.f64(layer.duration_us);
  }
  fp.f64(result.runtime_us);
  return fp.finish().hex();
}

// Schedule digests of every Table IV circuit on quera-256 under the default
// compile options, recorded before the movement engine and the layer loop
// were indexed. The indexed scheduler must reproduce them byte for byte.
const std::map<std::string, std::pair<const char*, const char*>>
    kScheduleGoldens = {
        // acronym -> {parallax, parallax-fast}
        {"ADD",
         {"de2fcfca6e8ba0603ae4d29568468c01",
          "629245fc1ff04c5cea73d1430d4ef349"}},
        {"ADV",
         {"53be49ec60e835661f42e8d8eb34d468",
          "70cb4565d1180185c57a928de9013828"}},
        {"GCM",
         {"e0d7fa7713092824274b2a992e7839f7",
          "963acbedacaa0328ab78a50527ee1987"}},
        {"HSB",
         {"0db86d22f84eb4d7fff54aea1bee7eec",
          "9bd162d0c11241c679628a6bb6574d52"}},
        {"HLF",
         {"dea05adebf6ff8590685460adfe4617c",
          "91db2356bc41f6be4d4825a00f09468e"}},
        {"KNN",
         {"711c5f66d57da0b68deb8ac8740b5b66",
          "fd9a3bdcb6a55760e44b53ec38617d8e"}},
        {"MLT",
         {"5e0fd603a77bb77933043eb81872efce",
          "1e24800a8d31847fc860468ada107e5f"}},
        {"QAOA",
         {"68b25dedfe9f7f93e8cc42521436048c",
          "631ef957600b72a8066e52464407e9c2"}},
        {"QEC",
         {"b70919a8602329e912621d7c3a22ad62",
          "4dd864d24e72e263d64509c3790ac1e6"}},
        {"QFT",
         {"d213b95a3ab6bcb055e4de5783f7974a",
          "d0d99cbb01e57a0350d1972e250455ea"}},
        {"QGAN",
         {"a86dd12a6ed2eb3618aa0381948d1eb0",
          "dc3b9cc21184d88257e24b3cc70aebf6"}},
        {"QV",
         {"d850e5a9af1c1c092f318504da56d11c",
          "cd26f4542c8917be31b215e582aeabb6"}},
        {"SAT",
         {"84fdc3033bade4b41796e691fd37726e",
          "fd8473781a8335439ff343d3102e706c"}},
        {"SECA",
         {"a836c71dc68fbe3ee5b139f4f072f71f",
          "12f959b83b98483f9c78383f42be05dc"}},
        {"SQRT",
         {"dcfbb80a9c4ef982d57ddb8b57fe6828",
          "af62db988eec66f44ec1ab6951932eb9"}},
        {"TFIM",
         {"60a877291f7b76e59b5db18676e3a7d5",
          "60a877291f7b76e59b5db18676e3a7d5"}},
        {"VQE",
         {"705770b8bd5d9bd8b1437c80b027b805",
          "9cced4a1c68c91f59092254dc36b8296"}},
        {"WST",
         {"4dbba97fa8e5bb5deec73abc09d76498",
          "ec157b4456cd69d76ae0568e7aeb31d9"}},
};

}  // namespace

TEST(Goldens, Table04SchedulesAreByteStable) {
  namespace pb = parallax::bench_circuits;
  const auto config = parallax::hardware::HardwareConfig::quera_aquila_256();
  for (const auto& info : pb::all_benchmarks()) {
    const auto circuit = pb::make_benchmark(info.acronym, {});
    const auto legacy =
        parallax::technique::compile("parallax", circuit, config);
    const auto fast =
        parallax::technique::compile("parallax-fast", circuit, config);
    const auto it = kScheduleGoldens.find(info.acronym);
    ASSERT_NE(it, kScheduleGoldens.end()) << info.acronym;
    EXPECT_EQ(schedule_digest(legacy), it->second.first)
        << info.acronym << " parallax";
    EXPECT_EQ(schedule_digest(fast), it->second.second)
        << info.acronym << " parallax-fast";
  }
}

namespace {

// A circuit beyond one placement window: a 160-qubit brickwork ring (rz on
// every qubit, then alternating even/odd nearest-neighbour CZs), the shape
// of an imported corpus circuit.
parallax::circuit::Circuit ring160() {
  namespace pc = parallax::circuit;
  constexpr std::int32_t kQubits = 160;
  pc::Circuit ring(kQubits, "ring160");
  parallax::util::Rng rng(160);
  for (int round = 0; round < 12; ++round) {
    for (std::int32_t q = 0; q < kQubits; ++q) {
      ring.rz(q, rng.uniform(-3.14159, 3.14159));
    }
    for (std::int32_t q = round % 2; q < kQubits; q += 2) {
      ring.cz(q, (q + 1) % kQubits);
    }
  }
  return ring;
}

std::string windowed_ring_digest(const char* technique) {
  parallax::pipeline::CompileOptions options;
  options.placement.max_window_qubits = 64;
  return schedule_digest(parallax::technique::compile(
      technique, ring160(),
      parallax::hardware::HardwareConfig::quera_aquila_256(), options));
}

}  // namespace

// The ring placed in 64-qubit windows, each annealed by the delta path.
TEST(Goldens, WindowedRingScheduleIsByteStable) {
  EXPECT_EQ(windowed_ring_digest("parallax-fast"),
            "ac422fc01005b7ac5a92ea49d7597ae2");
}

// The same windows annealed by the legacy full-vector path, recorded before
// its visit scale was hoisted and its crowding sum grid-filtered.
TEST(Goldens, LegacyWindowedRingScheduleIsByteStable) {
  EXPECT_EQ(windowed_ring_digest("parallax"),
            "312d326e63f5e7937e9b141544a3051e");
}
