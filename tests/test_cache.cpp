// Persistent compilation cache tests: digest/fingerprint stability,
// serialization round trips, two-tier store behavior, corruption tolerance,
// and the acceptance criterion of the subsystem — a warm sweep over the same
// matrix performs zero Graphine annealing calls and returns byte-identical
// results.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/fingerprint.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "hardware/config.hpp"
#include "placement/graphine.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/hash.hpp"

namespace fs = std::filesystem;
namespace pc = parallax::cache;
namespace pcir = parallax::circuit;
namespace ph = parallax::hardware;
namespace pp = parallax::pipeline;
namespace ppl = parallax::placement;
namespace pt = parallax::technique;
namespace pu = parallax::util;
namespace sw = parallax::sweep;

namespace {

/// A fresh directory per call, cleaned up by the fixture-less tests
/// themselves only when they care; TempDir is per-run scratch anyway.
std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_cache_" + tag + "_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

pcir::Circuit ghz(std::int32_t n, const std::string& name) {
  pcir::Circuit c(n, name);
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

sw::Options fast_sweep_options() {
  sw::Options options;
  options.compile.placement.anneal_iterations = 120;
  options.compile.placement.local_search_evaluations = 80;
  return options;
}

std::vector<sw::CircuitSpec> small_circuits() {
  return {{"ghz8", ghz(8, "ghz8")}, {"ghz6", ghz(6, "ghz6")}};
}

/// The single object file the store wrote for `key` (asserts it exists).
fs::path object_file(const std::string& dir, const pc::Digest128& key) {
  const std::string hex = key.hex();
  return fs::path(dir) / "objects" / hex.substr(0, 2) / (hex + ".bin");
}

}  // namespace

// --- util/hash ----------------------------------------------------------------

TEST(Hash128, GoldenDigestIsStableAcrossRuns) {
  // Cross-run key stability is the foundation of the on-disk cache. This
  // golden value pins the algorithm: if it ever changes, bump
  // cache::kFingerprintSchema / cache::kPayloadVersion alongside.
  const std::string input = "parallax";
  EXPECT_EQ(pu::hash128(input.data(), input.size()).hex(),
            "ccadd128a3d81b2350313e8c127ba6e7");
  EXPECT_EQ(pu::hash128(input.data(), 0).hex(),
            "8d7cf7d8353db796dfd65252c6067f6d");
}

TEST(Hash128, ChunkingInvariant) {
  const std::string input = "0123456789abcdefALPHABETSOUPdeadbeef";
  const auto whole = pu::hash128(input.data(), input.size());
  for (std::size_t split = 0; split <= input.size(); split += 3) {
    pu::Hash128 hasher;
    hasher.update(input.data(), split);
    hasher.update(input.data() + split, input.size() - split);
    EXPECT_EQ(hasher.digest(), whole) << "split at " << split;
  }
}

TEST(Hash128, LengthAndContentSensitive) {
  const std::string a = "abc";
  const std::string b("abc\0", 4);
  EXPECT_NE(pu::hash128(a.data(), a.size()), pu::hash128(b.data(), b.size()));
  const std::string c = "abd";
  EXPECT_NE(pu::hash128(a.data(), a.size()), pu::hash128(c.data(), c.size()));
}

TEST(Hash128, HexRoundTrip) {
  const pu::Digest128 digest = pu::hash128("x", 1);
  const auto parsed = pu::Digest128::from_hex(digest.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, digest);
  EXPECT_FALSE(pu::Digest128::from_hex("short").has_value());
  EXPECT_FALSE(
      pu::Digest128::from_hex("zz0e52b0704537e934d8f6f42a4b8688").has_value());
}

// --- cache/fingerprint --------------------------------------------------------

TEST(Fingerprint, SameInputsSameKey) {
  // Two independently built but identical circuits fingerprint identically —
  // the "same inputs => same key across runs" contract, modulo the golden
  // hash test above pinning cross-process stability.
  EXPECT_EQ(pc::fingerprint(ghz(8, "ghz8")), pc::fingerprint(ghz(8, "ghz8")));
  const auto config = ph::HardwareConfig::quera_aquila_256();
  EXPECT_EQ(pc::fingerprint(config), pc::fingerprint(config));
  const pp::CompileOptions options;
  EXPECT_EQ(pc::fingerprint(options), pc::fingerprint(options));
}

TEST(Fingerprint, SensitiveToEveryResultAffectingInput) {
  const auto base = pc::fingerprint(ghz(8, "ghz8"));
  EXPECT_NE(base, pc::fingerprint(ghz(8, "other")));  // seeds derive from name
  EXPECT_NE(base, pc::fingerprint(ghz(9, "ghz8")));
  auto gate_tweak = ghz(8, "ghz8");
  gate_tweak.rz(0, 1e-12);
  EXPECT_NE(base, pc::fingerprint(gate_tweak));

  auto config = ph::HardwareConfig::quera_aquila_256();
  const auto config_base = pc::fingerprint(config);
  config.aod_rows = 5;
  EXPECT_NE(config_base, pc::fingerprint(config));

  pp::CompileOptions options;
  const auto options_base = pc::fingerprint(options);
  options.seed ^= 1;
  EXPECT_NE(options_base, pc::fingerprint(options));
  options.seed ^= 1;
  options.placement.anneal_iterations += 1;
  EXPECT_NE(options_base, pc::fingerprint(options));
}

TEST(Fingerprint, HardwareNameExcluded) {
  // The display name never reaches a compile result, so renaming a machine
  // must not invalidate its cache entries.
  auto config = ph::HardwareConfig::quera_aquila_256();
  const auto base = pc::fingerprint(config);
  config.name = "renamed";
  EXPECT_EQ(base, pc::fingerprint(config));
}

TEST(Fingerprint, ResultKeySeparatesDerivedOutputs) {
  const auto circuit_fp = pc::fingerprint(ghz(8, "ghz8"));
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const pp::CompileOptions options;
  const std::vector<std::string> passes = {"transpile", "schedule"};
  const parallax::noise::NoiseOptions noise;
  const parallax::shots::ShotOptions shots;
  const auto plain =
      pc::result_key(circuit_fp, "parallax", passes, config, options);
  const auto with_noise =
      pc::result_key(circuit_fp, "parallax", passes, config, options, &noise);
  const auto with_shots = pc::result_key(circuit_fp, "parallax", passes,
                                         config, options, &noise, &shots);
  EXPECT_NE(plain, with_noise);
  EXPECT_NE(with_noise, with_shots);
  // And from the technique/pass list.
  EXPECT_NE(plain,
            pc::result_key(circuit_fp, "eldi", passes, config, options));
  EXPECT_NE(plain, pc::result_key(circuit_fp, "parallax",
                                  {"transpile"}, config, options));
}

TEST(Fingerprint, DistinctGraphineOptionsNeverShareAKey) {
  // Placement options that anneal different layouts must key apart. Feeding
  // some fields only when non-default, as bare i32s, once let one option
  // set's bytes spell another's: a 4-qubit window cap hashed like a
  // 4-entrant portfolio, so a windowed placement was served to a race cell.
  const auto circuit_fp = pc::fingerprint(ghz(8, "ghz8"));
  ppl::GraphineOptions window4;
  window4.max_window_qubits = 4;
  ppl::GraphineOptions portfolio4;
  portfolio4.portfolio_entrants = 4;
  ppl::GraphineOptions batched_one_chain;
  batched_one_chain.proposal = ppl::ProposalMode::kBatched;
  batched_one_chain.chains = 1;
  ppl::GraphineOptions window2_portfolio1;
  window2_portfolio1.max_window_qubits = 2;
  window2_portfolio1.portfolio_entrants = 1;
  const std::pair<ppl::GraphineOptions, ppl::GraphineOptions> pairs[] = {
      {window4, portfolio4}, {batched_one_chain, window2_portfolio1}};
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(pc::fingerprint(a), pc::fingerprint(b));
    EXPECT_NE(pc::placement_key(circuit_fp, a),
              pc::placement_key(circuit_fp, b));
  }
}

// --- cache/serialize ----------------------------------------------------------

TEST(Serialize, TopologyRoundTripIsExact) {
  ppl::Topology topology;
  topology.positions = {{0.125, 0.75}, {1.0 / 3.0, 0.9999999999999999}};
  topology.interaction_radius = 0.07071067811865475;
  const std::string bytes = pc::serialize_topology(topology);
  const ppl::Topology parsed = pc::parse_topology(bytes);
  ASSERT_EQ(parsed.positions.size(), topology.positions.size());
  for (std::size_t i = 0; i < parsed.positions.size(); ++i) {
    EXPECT_EQ(parsed.positions[i], topology.positions[i]);  // bit-exact
  }
  EXPECT_EQ(parsed.interaction_radius, topology.interaction_radius);
  EXPECT_EQ(pc::serialize_topology(parsed), bytes);
}

TEST(Serialize, CompileResultRoundTripIsExact) {
  pp::CompileOptions options;
  options.placement.anneal_iterations = 60;
  options.placement.local_search_evaluations = 40;
  options.scheduler.record_positions = true;  // exercise Layer::positions
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto result =
      pt::compile("parallax", ghz(6, "ghz6"), config, options);
  const std::string bytes = pc::serialize_result(result);
  const auto parsed = pc::parse_result(bytes);
  EXPECT_EQ(parsed.technique, result.technique);
  EXPECT_EQ(parsed.runtime_us, result.runtime_us);
  EXPECT_EQ(parsed.stats.cz_gates, result.stats.cz_gates);
  EXPECT_EQ(parsed.stats.layers, result.stats.layers);
  EXPECT_EQ(parsed.circuit.size(), result.circuit.size());
  EXPECT_EQ(parsed.in_aod, result.in_aod);
  ASSERT_EQ(parsed.layers.size(), result.layers.size());
  for (std::size_t i = 0; i < parsed.layers.size(); ++i) {
    EXPECT_EQ(parsed.layers[i].gates, result.layers[i].gates);
    EXPECT_EQ(parsed.layers[i].duration_us, result.layers[i].duration_us);
    EXPECT_EQ(parsed.layers[i].positions.size(),
              result.layers[i].positions.size());
  }
  // Re-encoding the decoded result reproduces the bytes: serialization is a
  // bijection on its image, the property behind warm-run byte-identity.
  EXPECT_EQ(pc::serialize_result(parsed), bytes);
  // Timings are metadata, not payload.
  EXPECT_FALSE(result.pass_timings.empty());
  EXPECT_TRUE(parsed.pass_timings.empty());
}

TEST(Serialize, CachedCellRoundTrip) {
  pp::CompileOptions options;
  options.placement.anneal_iterations = 60;
  options.placement.local_search_evaluations = 40;
  const auto config = ph::HardwareConfig::atom_computing_1225();
  pc::CachedCell cell;
  cell.result = pt::compile("parallax", ghz(6, "ghz6"), config, options);
  cell.has_success_probability = true;
  cell.success_probability = 0.87654321;
  cell.has_shot_plans = true;
  cell.shot_plans = parallax::shots::parallelization_sweep(cell.result,
                                                           config);
  const std::string bytes = pc::serialize_cell(cell);
  const pc::CachedCell parsed = pc::parse_cell(bytes);
  EXPECT_TRUE(parsed.has_success_probability);
  EXPECT_EQ(parsed.success_probability, cell.success_probability);
  ASSERT_EQ(parsed.shot_plans.size(), cell.shot_plans.size());
  for (std::size_t i = 0; i < parsed.shot_plans.size(); ++i) {
    EXPECT_EQ(parsed.shot_plans[i].copies, cell.shot_plans[i].copies);
    EXPECT_EQ(parsed.shot_plans[i].total_execution_time_us,
              cell.shot_plans[i].total_execution_time_us);
  }
  EXPECT_EQ(pc::serialize_cell(parsed), bytes);
}

TEST(Serialize, MalformedPayloadThrowsReadError) {
  ppl::Topology topology;
  topology.positions = {{0.5, 0.5}};
  const std::string bytes = pc::serialize_topology(topology);
  EXPECT_THROW((void)pc::parse_topology(bytes.substr(0, bytes.size() - 1)),
               pc::ReadError);
  std::string trailing = bytes;
  trailing.push_back('x');
  EXPECT_THROW((void)pc::parse_topology(trailing), pc::ReadError);
  // A corrupt length prefix must fail fast, not attempt a huge allocation.
  std::string evil = bytes;
  evil[0] = '\xff';
  evil[7] = '\xff';
  EXPECT_THROW((void)pc::parse_topology(evil), pc::ReadError);
}

// --- cache/store + cache/cache ------------------------------------------------

TEST(CompilationCache, PersistsPlacementsAcrossInstances) {
  const std::string dir = fresh_dir("persist");
  ppl::Topology topology;
  topology.positions = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
  topology.interaction_radius = 0.25;
  const auto key = pc::placement_key(pc::fingerprint(ghz(3, "g")), {});
  {
    pc::CompilationCache cache({.directory = dir});
    EXPECT_FALSE(cache.get_placement(key).has_value());
    cache.put_placement(key, topology);
    ASSERT_TRUE(cache.get_placement(key).has_value());
    EXPECT_EQ(cache.stats().placement_hits, 1u);
    EXPECT_EQ(cache.stats().store.memory_hits, 1u);  // hot entry stays in RAM
  }
  // A different process (modeled by a fresh instance) sees the entry via the
  // disk tier.
  pc::CompilationCache cache({.directory = dir});
  const auto loaded = cache.get_placement(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->positions.size(), 3u);
  EXPECT_EQ(loaded->positions[2], topology.positions[2]);
  EXPECT_EQ(cache.stats().store.disk_hits, 1u);
}

TEST(CompilationCache, CorruptTruncatedAndStaleEntriesDegradeToMiss) {
  const std::string dir = fresh_dir("corrupt");
  ppl::Topology topology;
  topology.positions = {{0.5, 0.5}};
  const auto base_fp = pc::fingerprint(ghz(1, "g"));
  const auto write_entry = [&](std::uint64_t salt) {
    pc::CompilationCache cache({.directory = dir});
    ppl::GraphineOptions options;
    options.seed = salt;
    const auto key = pc::placement_key(base_fp, options);
    cache.put_placement(key, topology);
    return key;
  };

  {  // flipped payload byte => checksum miss, file dropped
    const auto key = write_entry(1);
    const fs::path path = object_file(dir, key);
    ASSERT_TRUE(fs::exists(path));
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-3, std::ios::end);
    file.put('\x7f');
    file.close();
    pc::CompilationCache cache({.directory = dir});
    EXPECT_FALSE(cache.get_placement(key).has_value());
    EXPECT_EQ(cache.stats().store.corrupt, 1u);
    EXPECT_FALSE(fs::exists(path));  // bad entry unlinked for rewriting
  }
  {  // truncation => miss
    const auto key = write_entry(2);
    const fs::path path = object_file(dir, key);
    fs::resize_file(path, 10);
    pc::CompilationCache cache({.directory = dir});
    EXPECT_FALSE(cache.get_placement(key).has_value());
  }
  {  // empty file => miss
    const auto key = write_entry(3);
    fs::resize_file(object_file(dir, key), 0);
    pc::CompilationCache cache({.directory = dir});
    EXPECT_FALSE(cache.get_placement(key).has_value());
  }
  {  // version bump (stale build) => silent miss
    const auto key = write_entry(4);
    const fs::path path = object_file(dir, key);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(8);   // header layout: magic u64, then version u32
    file.put('\x7e');
    file.close();
    pc::CompilationCache cache({.directory = dir});
    EXPECT_FALSE(cache.get_placement(key).has_value());
  }
  {  // wrong kind for the key => miss (defense in depth)
    const auto key = write_entry(5);
    pc::CompilationCache cache({.directory = dir});
    EXPECT_FALSE(cache.get_result(key).has_value());
  }
}

TEST(CompilationCache, MemoryOnlyAndLruEviction) {
  pc::CompilationCache memory_only({.directory = "", .disk = false});
  ppl::Topology topology;
  topology.positions = {{0.5, 0.5}};
  const auto key = pc::placement_key(pc::fingerprint(ghz(1, "g")), {});
  memory_only.put_placement(key, topology);
  EXPECT_TRUE(memory_only.get_placement(key).has_value());
  EXPECT_TRUE(memory_only.directory().empty());

  // A tiny memory budget forces eviction; the disk tier still serves.
  const std::string dir = fresh_dir("lru");
  pc::CompilationCache tiny({.directory = dir, .max_memory_bytes = 1});
  ppl::GraphineOptions options;
  options.seed = 99;
  const auto key2 = pc::placement_key(pc::fingerprint(ghz(1, "g")), options);
  tiny.put_placement(key, topology);
  tiny.put_placement(key2, topology);  // evicts key from memory
  EXPECT_TRUE(tiny.get_placement(key).has_value());
  EXPECT_TRUE(tiny.get_placement(key2).has_value());
  const auto stats = tiny.stats().store;
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.disk_hits, 0u);
}

TEST(CompilationCache, EntriesAndClear) {
  const std::string dir = fresh_dir("entries");
  pc::CompilationCache cache({.directory = dir});
  ppl::Topology topology;
  topology.positions = {{0.5, 0.5}};
  const auto fp = pc::fingerprint(ghz(1, "g"));
  for (std::uint64_t i = 0; i < 3; ++i) {
    ppl::GraphineOptions options;
    options.seed = i;
    cache.put_placement(pc::placement_key(fp, options), topology);
  }
  auto entries = cache.entries();
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.kind, pc::Kind::kPlacement);
    EXPECT_GT(entry.payload_bytes, 0u);
  }
  // The listing survives index.log deletion via the directory-scan fallback.
  fs::remove(fs::path(dir) / "index.log");
  EXPECT_EQ(cache.entries().size(), 3u);
  EXPECT_EQ(cache.clear(), 3u);
  EXPECT_TRUE(cache.entries().empty());
  const auto key0 = pc::placement_key(fp, ppl::GraphineOptions{});
  EXPECT_FALSE(cache.get_placement(key0).has_value());
}

// --- disk-tier eviction (max_disk_bytes) --------------------------------------

namespace {

/// Distinct placement keys derived from a salt, plus a fixed payload.
pc::Digest128 salted_key(std::uint64_t salt) {
  ppl::GraphineOptions options;
  options.seed = salt;
  return pc::placement_key(pc::fingerprint(ghz(1, "g")), options);
}

ppl::Topology small_topology() {
  ppl::Topology topology;
  topology.positions = {{0.25, 0.75}};
  topology.interaction_radius = 0.5;
  return topology;
}

}  // namespace

TEST(DiskEviction, MaxDiskBytesIsHonored) {
  const std::string dir = fresh_dir("evict_budget");
  const std::string payload =
      pc::serialize_topology(small_topology());
  // Room for roughly two entries (header is 32 bytes per entry file).
  const std::uint64_t budget = 2 * (payload.size() + 40);
  pc::CompilationCache cache(
      {.directory = dir, .max_disk_bytes = budget});
  for (std::uint64_t salt = 0; salt < 6; ++salt) {
    cache.put_placement(salted_key(salt), small_topology());
    EXPECT_LE(cache.stats().store.disk_bytes, budget) << "salt " << salt;
  }
  EXPECT_GT(cache.stats().store.disk_evictions, 0u);
  // The survivors are on disk, everything else was unlinked.
  std::size_t files = 0;
  for (fs::recursive_directory_iterator it(fs::path(dir) / "objects"), end;
       it != end; ++it) {
    if (it->is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 2u);
}

TEST(DiskEviction, EvictionOrderIsLruByIndexOrder) {
  const std::string dir = fresh_dir("evict_order");
  const std::string payload = pc::serialize_topology(small_topology());
  const std::uint64_t entry_bytes = 32 + payload.size();
  pc::CompilationCache cache(
      {.directory = dir, .max_disk_bytes = 3 * entry_bytes});
  cache.put_placement(salted_key(0), small_topology());
  cache.put_placement(salted_key(1), small_topology());
  cache.put_placement(salted_key(2), small_topology());
  // Re-put entry 0: its index line is re-appended, moving it to the back of
  // the eviction order.
  cache.put_placement(salted_key(0), small_topology());
  // One more entry evicts exactly the least recently written one — entry 1,
  // not entry 0.
  cache.put_placement(salted_key(3), small_topology());
  EXPECT_TRUE(fs::exists(object_file(dir, salted_key(0))));
  EXPECT_FALSE(fs::exists(object_file(dir, salted_key(1))));
  EXPECT_TRUE(fs::exists(object_file(dir, salted_key(2))));
  EXPECT_TRUE(fs::exists(object_file(dir, salted_key(3))));
}

TEST(DiskEviction, EvictedEntriesDegradeToCleanMisses) {
  const std::string dir = fresh_dir("evict_miss");
  const std::string payload = pc::serialize_topology(small_topology());
  {
    pc::CompilationCache cache(
        {.directory = dir,
         .max_memory_bytes = 1,  // keep the memory tier out of the picture
         .max_disk_bytes = 32 + payload.size()});
    cache.put_placement(salted_key(0), small_topology());
    cache.put_placement(salted_key(1), small_topology());  // evicts 0
    EXPECT_FALSE(cache.get_placement(salted_key(0)).has_value());
    EXPECT_TRUE(cache.get_placement(salted_key(1)).has_value());
    EXPECT_EQ(cache.stats().store.corrupt, 0u);  // a miss, not an error
  }
  // A fresh instance (new process) sees the same thing.
  pc::CompilationCache cache({.directory = dir});
  EXPECT_FALSE(cache.get_placement(salted_key(0)).has_value());
  EXPECT_TRUE(cache.get_placement(salted_key(1)).has_value());
}

TEST(DiskEviction, BudgetIsEnforcedWhenOpeningAnOversizedDirectory) {
  const std::string dir = fresh_dir("evict_open");
  const std::string payload = pc::serialize_topology(small_topology());
  {
    pc::CompilationCache unbounded({.directory = dir});
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      unbounded.put_placement(salted_key(salt), small_topology());
    }
  }
  // Reopening with a budget trims the directory immediately, oldest first.
  pc::CompilationCache bounded(
      {.directory = dir, .max_disk_bytes = 2 * (32 + payload.size())});
  EXPECT_EQ(bounded.stats().store.disk_evictions, 3u);
  EXPECT_FALSE(fs::exists(object_file(dir, salted_key(0))));
  EXPECT_FALSE(fs::exists(object_file(dir, salted_key(2))));
  EXPECT_TRUE(fs::exists(object_file(dir, salted_key(3))));
  EXPECT_TRUE(fs::exists(object_file(dir, salted_key(4))));
  EXPECT_LE(bounded.stats().store.disk_bytes, 2 * (32 + payload.size()));
}

TEST(DiskEviction, BudgetBoundsObjectsEvenWithoutIndexLog) {
  // The index is the recency order, not the source of truth: deleting it
  // must not let a budgeted open ignore the object files.
  const std::string dir = fresh_dir("evict_noindex");
  const std::string payload = pc::serialize_topology(small_topology());
  {
    pc::CompilationCache unbounded({.directory = dir});
    for (std::uint64_t salt = 0; salt < 5; ++salt) {
      unbounded.put_placement(salted_key(salt), small_topology());
    }
  }
  fs::remove(fs::path(dir) / "index.log");
  pc::CompilationCache bounded(
      {.directory = dir, .max_disk_bytes = 2 * (32 + payload.size())});
  EXPECT_EQ(bounded.stats().store.disk_evictions, 3u);
  EXPECT_LE(bounded.stats().store.disk_bytes, 2 * (32 + payload.size()));
  std::size_t files = 0;
  for (fs::recursive_directory_iterator it(fs::path(dir) / "objects"), end;
       it != end; ++it) {
    if (it->is_regular_file()) ++files;
  }
  EXPECT_EQ(files, 2u);
  // The recovered listing is persisted: the scan rewrote index.log, so a
  // later budgeted open tracks the survivors without losing them again.
  std::size_t lines = 0;
  std::ifstream rebuilt(fs::path(dir) / "index.log");
  ASSERT_TRUE(rebuilt.good());
  for (std::string line; std::getline(rebuilt, line);) ++lines;
  EXPECT_EQ(lines, 2u);
  pc::CompilationCache reopened(
      {.directory = dir, .max_disk_bytes = 32 + payload.size()});
  EXPECT_EQ(reopened.stats().store.disk_evictions, 1u);
}

TEST(DiskEviction, IndexLogStaysBoundedUnderChurn) {
  // A churning budgeted campaign must bound the log too, not just the
  // objects: dead lines (evicted entries) are compacted away once they
  // dominate.
  const std::string dir = fresh_dir("evict_compact");
  const std::string payload = pc::serialize_topology(small_topology());
  pc::CompilationCache cache(
      {.directory = dir, .max_disk_bytes = 2 * (32 + payload.size())});
  for (std::uint64_t salt = 0; salt < 300; ++salt) {
    cache.put_placement(salted_key(salt), small_topology());
  }
  std::size_t lines = 0;
  std::ifstream index(fs::path(dir) / "index.log");
  for (std::string line; std::getline(index, line);) ++lines;
  EXPECT_LT(lines, 100u);  // 300 appends, compacted to live + recent churn
  // Compaction never loses the live entries.
  EXPECT_TRUE(cache.get_placement(salted_key(299)).has_value());
  pc::CompilationCache reopened(
      {.directory = dir, .max_disk_bytes = 2 * (32 + payload.size())});
  EXPECT_TRUE(reopened.get_placement(salted_key(299)).has_value());
}

TEST(DiskEviction, UnboundedByDefault) {
  const std::string dir = fresh_dir("evict_unbounded");
  pc::CompilationCache cache({.directory = dir});
  for (std::uint64_t salt = 0; salt < 20; ++salt) {
    cache.put_placement(salted_key(salt), small_topology());
  }
  EXPECT_EQ(cache.stats().store.disk_evictions, 0u);
  for (std::uint64_t salt = 0; salt < 20; ++salt) {
    EXPECT_TRUE(cache.get_placement(salted_key(salt)).has_value());
  }
}

TEST(CompilationCache, DefaultDirectoryRespectsEnvironment) {
  const char* saved = std::getenv("PARALLAX_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("PARALLAX_CACHE_DIR", "/tmp/parallax-env-cache", 1);
  EXPECT_EQ(pc::default_directory(), "/tmp/parallax-env-cache");
  ::unsetenv("PARALLAX_CACHE_DIR");
  EXPECT_EQ(pc::default_directory(), ".parallax-cache");
  if (saved != nullptr) {
    ::setenv("PARALLAX_CACHE_DIR", saved_value.c_str(), 1);
  }
}

// --- registry front door ------------------------------------------------------

TEST(CompilationCache, RegistryCompileCachedPath) {
  const std::string dir = fresh_dir("registry");
  pc::CompilationCache cache({.directory = dir});
  pp::CompileOptions options;
  options.placement.anneal_iterations = 60;
  options.placement.local_search_evaluations = 40;
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto circuit = ghz(6, "ghz6");
  const auto& registry = pt::Registry::global();

  const auto cold =
      registry.compile("parallax", circuit, config, options, &cache);
  EXPECT_EQ(cache.stats().result_misses, 1u);
  const std::uint64_t anneals = ppl::annealing_invocations();
  const auto warm =
      registry.compile("parallax", circuit, config, options, &cache);
  EXPECT_EQ(cache.stats().result_hits, 1u);
  EXPECT_EQ(ppl::annealing_invocations(), anneals);  // no re-anneal
  EXPECT_EQ(pc::serialize_result(warm), pc::serialize_result(cold));
  ASSERT_FALSE(warm.pass_timings.empty());
  for (const auto& timing : warm.pass_timings) EXPECT_TRUE(timing.cached);
  // Null cache is the plain compile.
  const auto direct =
      registry.compile("parallax", circuit, config, options, nullptr);
  EXPECT_EQ(pc::serialize_result(direct), pc::serialize_result(cold));
}

// --- the acceptance criterion: warm sweeps ------------------------------------

TEST(SweepCache, WarmRunAnnealsNothingAndIsByteIdentical) {
  const std::string dir = fresh_dir("sweep");
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const std::vector<std::string> techniques = {"parallax", "graphine",
                                               "eldi", "static"};
  auto options = fast_sweep_options();
  options.shots = parallax::shots::ShotOptions{};

  options.cache = pc::CompilationCache::open({.directory = dir});
  const std::uint64_t anneals_before = ppl::annealing_invocations();
  const auto cold = sw::run(small_circuits(), techniques,
                            {{config.name, config}}, options);
  EXPECT_GT(ppl::annealing_invocations(), anneals_before);
  EXPECT_EQ(cold.result_cache_hits, 0u);
  EXPECT_EQ(cold.result_cache_misses, cold.cells.size());
  for (const auto& cell : cold.cells) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    EXPECT_FALSE(cell.from_cache);
  }

  // Warm run: a fresh cache instance over the same directory (a new
  // process). Zero annealing calls, every cell a whole-result hit, results
  // byte-identical.
  options.cache = pc::CompilationCache::open({.directory = dir});
  const std::uint64_t anneals_cold = ppl::annealing_invocations();
  const auto warm = sw::run(small_circuits(), techniques,
                            {{config.name, config}}, options);
  EXPECT_EQ(ppl::annealing_invocations(), anneals_cold);
  EXPECT_EQ(warm.result_cache_hits, warm.cells.size());
  EXPECT_EQ(warm.result_cache_misses, 0u);
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t i = 0; i < warm.cells.size(); ++i) {
    const auto& w = warm.cells[i];
    const auto& c = cold.cells[i];
    ASSERT_TRUE(w.ok()) << w.error;
    EXPECT_TRUE(w.from_cache) << w.circuit << "/" << w.technique;
    EXPECT_EQ(pc::serialize_result(w.result), pc::serialize_result(c.result))
        << w.circuit << "/" << w.technique;
    EXPECT_EQ(w.success_probability, c.success_probability);
    ASSERT_EQ(w.shot_plans.size(), c.shot_plans.size());
    for (std::size_t p = 0; p < w.shot_plans.size(); ++p) {
      EXPECT_EQ(w.shot_plans[p].total_execution_time_us,
                c.shot_plans[p].total_execution_time_us);
    }
    for (const auto& timing : w.result.pass_timings) {
      EXPECT_TRUE(timing.cached);
    }
  }
}

TEST(SweepCache, PlacementOnlyReuseStillAnnealsNothing) {
  // reuse_results=false exercises the placement disk tier in isolation: the
  // pipeline runs, but every Graphine placement loads from disk.
  const std::string dir = fresh_dir("placement_only");
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.cache = pc::CompilationCache::open({.directory = dir});
  const auto cold = sw::run(small_circuits(), {"parallax", "graphine"},
                            {{config.name, config}}, options);
  EXPECT_EQ(cold.placement_disk_hits, 0u);

  options.cache = pc::CompilationCache::open({.directory = dir});
  options.reuse_results = false;
  const std::uint64_t anneals_cold = ppl::annealing_invocations();
  const auto warm = sw::run(small_circuits(), {"parallax", "graphine"},
                            {{config.name, config}}, options);
  EXPECT_EQ(ppl::annealing_invocations(), anneals_cold);
  EXPECT_EQ(warm.result_cache_hits, 0u);
  EXPECT_EQ(warm.placement_disk_hits, small_circuits().size());
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t i = 0; i < warm.cells.size(); ++i) {
    ASSERT_TRUE(warm.cells[i].ok()) << warm.cells[i].error;
    EXPECT_FALSE(warm.cells[i].from_cache);
    EXPECT_EQ(pc::serialize_result(warm.cells[i].result),
              pc::serialize_result(cold.cells[i].result));
  }
}

TEST(SweepCache, ChangedOptionsMissInsteadOfWrongHit) {
  const std::string dir = fresh_dir("changed");
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.cache = pc::CompilationCache::open({.directory = dir});
  (void)sw::run(small_circuits(), {"static"}, {{config.name, config}},
                options);
  // An incremental sweep: one knob changes, so every cell must recompile —
  // a wrong hit here would silently misreport the paper.
  options.compile.seed ^= 0x1234;
  const auto changed = sw::run(small_circuits(), {"static"},
                               {{config.name, config}}, options);
  EXPECT_EQ(changed.result_cache_hits, 0u);
  EXPECT_EQ(changed.result_cache_misses, changed.cells.size());
}

TEST(SweepCache, PassTimingsSurfacedInCells) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto swept = sw::run({{"ghz8", ghz(8, "ghz8")}},
                             {"parallax", "graphine"},
                             {{config.name, config}}, fast_sweep_options());
  const auto& parallax_cell = swept.at("ghz8", "parallax");
  std::vector<std::string> names;
  for (const auto& timing : parallax_cell.result.pass_timings) {
    names.push_back(timing.pass);
    EXPECT_GE(timing.seconds, 0.0);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "transpile", "anneal", "graphine-placement",
                       "discretize", "aod-selection", "schedule"}));
  // Exactly one of the two graphine-placement cells annealed; the other's
  // stage is marked as served from the shared memo.
  const auto& graphine_cell = swept.at("ghz8", "graphine");
  int cached_placements = 0;
  for (const auto* cell : {&parallax_cell, &graphine_cell}) {
    for (const auto& timing : cell->result.pass_timings) {
      if (timing.pass == "graphine-placement" && timing.cached) {
        ++cached_placements;
      }
    }
  }
  EXPECT_EQ(cached_placements, 1);
}

// --- index.log robustness (concurrent writers) --------------------------------

TEST(StoreIndex, MalformedAndTornLinesAreSkippedNotFatal) {
  const std::string dir = fresh_dir("index_torn");
  {
    pc::CompilationCache cache({.directory = dir});
    cache.put_placement(salted_key(0), small_topology());
    cache.put_placement(salted_key(1), small_topology());
  }
  // Inject junk between the two real lines: a torn append (a writer that
  // raced another process's compaction rename), free-form garbage, and a
  // line whose numeric fields do not parse. A whole-stream `>>` parse used
  // to go into a fail state at the first bad token and silently drop every
  // entry after it.
  const fs::path index_path = fs::path(dir) / "index.log";
  std::vector<std::string> lines;
  {
    std::ifstream in(index_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  {
    std::ofstream out(index_path, std::ios::trunc);
    out << lines[0] << '\n';
    out << "deadbeef\n";                          // torn mid-append
    out << "this is not an index line at all\n";  // free-form garbage
    out << salted_key(0).hex() << " banana 12\n";  // unparseable kind
    out << salted_key(0).hex() << " 1 -5\n";       // negative size
    out << lines[1] << '\n';
  }
  pc::CompilationCache cache({.directory = dir});
  EXPECT_EQ(cache.entries().size(), 2u);
  EXPECT_TRUE(cache.get_placement(salted_key(0)).has_value());
  EXPECT_TRUE(cache.get_placement(salted_key(1)).has_value());
}

TEST(StoreIndex, BudgetedReloadTracksEntriesPastATornLine) {
  const std::string dir = fresh_dir("index_torn_budget");
  const std::string payload = pc::serialize_topology(small_topology());
  {
    pc::CompilationCache cache({.directory = dir});
    cache.put_placement(salted_key(0), small_topology());
    cache.put_placement(salted_key(1), small_topology());
  }
  const fs::path index_path = fs::path(dir) / "index.log";
  std::vector<std::string> lines;
  {
    std::ifstream in(index_path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  {
    std::ofstream out(index_path, std::ios::trunc);
    out << lines[0] << '\n' << "garbage line\n" << lines[1] << '\n';
  }
  // A budgeted open must account for BOTH files: losing the entry behind
  // the torn line would under-count usage and let the directory outgrow
  // its budget.
  pc::CompilationCache cache(
      {.directory = dir, .max_disk_bytes = 10 * (32 + payload.size())});
  EXPECT_EQ(cache.stats().store.disk_bytes, 2 * (32 + payload.size()));
}
