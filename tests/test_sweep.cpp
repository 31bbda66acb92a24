// Sweep-driver tests: thread-count invariance (the acceptance criterion of
// the pipeline refactor), parity with sequential single-circuit compilation,
// placement memoization accounting, error isolation, and shot planning.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "cache/fingerprint.hpp"
#include "circuit/circuit.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "shard/shard.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"

namespace pc = parallax::circuit;
namespace ph = parallax::hardware;
namespace pp = parallax::pipeline;
namespace pt = parallax::technique;
namespace sh = parallax::shard;
namespace sw = parallax::sweep;

namespace {

pc::Circuit ghz(std::int32_t n, const std::string& name) {
  pc::Circuit c(n, name);
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

pc::Circuit ring(std::int32_t n, const std::string& name) {
  pc::Circuit c(n, name);
  for (std::int32_t q = 0; q < n; ++q) c.cz(q, (q + 1) % n);
  return c;
}

std::vector<sw::CircuitSpec> small_circuits() {
  parallax::bench_circuits::GenOptions gen;
  gen.seed = 7;
  return {{"ghz8", ghz(8, "ghz8")},
          {"ring6", ring(6, "ring6")},
          {"qaoa8", parallax::bench_circuits::make_qaoa(8, 1, gen)}};
}

sw::Options fast_sweep_options() {
  sw::Options options;
  options.compile.placement.anneal_iterations = 120;
  options.compile.placement.local_search_evaluations = 80;
  return options;
}

std::vector<std::string> all_techniques() {
  return pt::Registry::global().names();
}

void expect_same_cells(const sw::Result& a, const sw::Result& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& ca = a.cells[i];
    const auto& cb = b.cells[i];
    EXPECT_EQ(ca.circuit, cb.circuit);
    EXPECT_EQ(ca.technique, cb.technique);
    EXPECT_EQ(ca.machine, cb.machine);
    EXPECT_EQ(ca.error, cb.error);
    EXPECT_EQ(ca.result.stats.cz_gates, cb.result.stats.cz_gates);
    EXPECT_EQ(ca.result.stats.swap_gates, cb.result.stats.swap_gates);
    EXPECT_EQ(ca.result.stats.layers, cb.result.stats.layers);
    EXPECT_EQ(ca.result.stats.trap_changes, cb.result.stats.trap_changes);
    EXPECT_EQ(ca.result.runtime_us, cb.result.runtime_us);
    EXPECT_EQ(ca.success_probability, cb.success_probability);
    ASSERT_EQ(ca.result.topology.sites.size(), cb.result.topology.sites.size());
    for (std::size_t s = 0; s < ca.result.topology.sites.size(); ++s) {
      EXPECT_EQ(ca.result.topology.sites[s], cb.result.topology.sites[s]);
    }
  }
}

}  // namespace

TEST(Sweep, ThreadCountInvariant) {
  // The acceptance criterion: a sweep's stats are identical whatever the
  // thread count — cell results depend only on (circuit, technique,
  // machine, options).
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.n_threads = 1;
  const auto serial = sw::run(small_circuits(), all_techniques(),
                              {{config.name, config}}, options);
  options.n_threads = 4;
  const auto threaded = sw::run(small_circuits(), all_techniques(),
                                {{config.name, config}}, options);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(threaded.threads_used, 4u);
  expect_same_cells(serial, threaded);
}

TEST(Sweep, MatchesSequentialSingleCircuitCompilation) {
  // A sweep cell must equal compiling that (circuit, technique, machine)
  // alone with the same options — memoized placements and shared
  // transpilation change wall time, never results.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.n_threads = 4;
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, all_techniques(),
                             {{config.name, config}}, options);
  for (const auto& cell : swept.cells) {
    ASSERT_TRUE(cell.ok()) << cell.technique << ": " << cell.error;
    const auto& spec = circuits[cell.circuit_index];
    const auto direct =
        pt::compile(cell.technique, spec.circuit, config, options.compile);
    EXPECT_EQ(cell.result.stats.cz_gates, direct.stats.cz_gates);
    EXPECT_EQ(cell.result.stats.swap_gates, direct.stats.swap_gates);
    EXPECT_EQ(cell.result.stats.layers, direct.stats.layers);
    EXPECT_EQ(cell.result.stats.trap_changes, direct.stats.trap_changes);
    EXPECT_EQ(cell.result.runtime_us, direct.runtime_us);
    ASSERT_EQ(cell.result.topology.sites.size(),
              direct.topology.sites.size());
    for (std::size_t s = 0; s < direct.topology.sites.size(); ++s) {
      EXPECT_EQ(cell.result.topology.sites[s], direct.topology.sites[s])
          << cell.circuit << "/" << cell.technique << " site " << s;
    }
  }
}

TEST(Sweep, PlacementMemoizedAcrossTechniquesAndMachines) {
  // parallax and graphine share Step 1; with two machines, four cells per
  // circuit need the placement but only one computes it.
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  const auto atom = ph::HardwareConfig::atom_computing_1225();
  auto options = fast_sweep_options();
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, {"parallax", "graphine"},
                             {{"quera", quera}, {"atom", atom}}, options);
  for (const auto& cell : swept.cells) {
    EXPECT_TRUE(cell.ok()) << cell.error;
  }
  EXPECT_EQ(swept.placement_cache_misses, circuits.size());
  EXPECT_EQ(swept.placement_cache_hits, 3 * circuits.size());
}

TEST(Sweep, PlacementMemoHitReportsWaitNotWork) {
  // parallax and graphine share one placement: the cell that annealed books
  // the placement as work; the other only waited on (or copied) it, so its
  // row carries 0 work seconds and the blocked time as wait.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.n_threads = 2;
  const auto swept = sw::run({{"ghz8", ghz(8, "ghz8")}},
                             {"parallax", "graphine"},
                             {{config.name, config}}, options);
  int annealed = 0;
  int waited = 0;
  for (const auto& cell : swept.cells) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    for (const auto& timing : cell.result.pass_timings) {
      if (timing.pass != "graphine-placement") continue;
      if (timing.cached) {
        ++waited;
        EXPECT_EQ(timing.seconds, 0.0) << cell.technique;
        EXPECT_GE(timing.wait_seconds, 0.0) << cell.technique;
      } else {
        ++annealed;
        EXPECT_GT(timing.seconds, 0.0) << cell.technique;
        EXPECT_EQ(timing.wait_seconds, 0.0) << cell.technique;
      }
    }
  }
  EXPECT_EQ(annealed, 1);
  EXPECT_EQ(waited, 1);
}

TEST(Sweep, MemoKeysOnCustomizedPlacementOptions) {
  // A customize hook that gives one technique different placement options
  // must not be served another technique's memoized placement.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.customize = [](const std::string&, const std::string& technique,
                         const std::string&, pp::CompileOptions& compile) {
    if (technique == "graphine") compile.placement.anneal_iterations = 60;
  };
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, {"parallax", "graphine"},
                             {{config.name, config}}, options);
  EXPECT_EQ(swept.placement_cache_misses, 2 * circuits.size());
  EXPECT_EQ(swept.placement_cache_hits, 0u);
}

TEST(Sweep, TranspileMemoKeysOnCustomizedOptions) {
  // customize disables CZ-pair cancellation for one technique; its cells
  // must get the uncancelled circuit, not another cell's memoized one.
  pc::Circuit c(2, "czpair");
  c.cz(0, 1);
  c.cz(0, 1);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.customize = [](const std::string&, const std::string& technique,
                         const std::string&, pp::CompileOptions& compile) {
    if (technique == "static") compile.transpile.cancel_cz_pairs = false;
  };
  const auto swept = sw::run({{"czpair", c}}, {"eldi", "static"},
                             {{config.name, config}}, options);
  EXPECT_EQ(swept.at("czpair", "eldi").result.stats.cz_gates, 0u);
  EXPECT_EQ(swept.at("czpair", "static").result.stats.cz_gates, 2u);
  EXPECT_EQ(swept.transpile_cache_misses, 2u);
  EXPECT_EQ(swept.transpile_cache_hits, 0u);
}

TEST(Sweep, PlacementMemoKeysOnEffectiveInputCircuit) {
  // Techniques whose transpile options diverge see different circuits, so
  // their Step-1 placements must not be shared either — each cell still has
  // to equal its own direct compilation.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.customize = [](const std::string&, const std::string& technique,
                         const std::string&, pp::CompileOptions& compile) {
    if (technique == "graphine") compile.transpile.fuse_single_qubit = false;
  };
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, {"parallax", "graphine"},
                             {{config.name, config}}, options);
  // Placements are keyed by content: a circuit the fusion flag leaves
  // unchanged shares one placement between the techniques, every other
  // circuit gets one per technique.
  std::set<parallax::cache::Digest128> inputs;
  for (const auto& spec : circuits) {
    for (const std::string technique : {"parallax", "graphine"}) {
      auto compile = options.compile;
      options.customize(spec.name, technique, config.name, compile);
      inputs.insert(parallax::cache::fingerprint(
          pc::transpile(spec.circuit, compile.transpile)));
    }
  }
  ASSERT_GT(inputs.size(), circuits.size());
  EXPECT_EQ(swept.placement_cache_misses, inputs.size());
  EXPECT_EQ(swept.placement_cache_hits, 2 * circuits.size() - inputs.size());
  for (const auto& cell : swept.cells) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    auto direct_options = options.compile;
    options.customize(cell.circuit, cell.technique, cell.machine,
                      direct_options);
    const auto direct = pt::compile(cell.technique,
                                    circuits[cell.circuit_index].circuit,
                                    config, direct_options);
    EXPECT_EQ(cell.result.runtime_us, direct.runtime_us)
        << cell.circuit << "/" << cell.technique;
    EXPECT_EQ(cell.result.stats.layers, direct.stats.layers);
  }
}

TEST(Sweep, PersistentCacheNeverServesAnotherTechniquesPlacement) {
  // parallax-fast with a 4-qubit window cap and parallax-race (4 portfolio
  // entrants) anneal different placements of the same circuit. A cache the
  // windowed run filled must not hand its placement to the race: the race
  // cell has to equal a cacheless race cell, with no placement disk hit.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_sweep_race_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const std::vector<sw::CircuitSpec> circuits =
      sw::benchmark_circuits({"QV"}, {});
  const std::vector<sw::MachineSpec> machines = {{config.name, config}};

  sw::Options windowed;
  windowed.compile.placement.max_window_qubits = 4;
  windowed.cache =
      parallax::cache::CompilationCache::open({.directory = dir.string()});
  const auto filled = sw::run(circuits, {"parallax-fast"}, machines, windowed);
  ASSERT_TRUE(filled.cells.at(0).ok()) << filled.cells.at(0).error;

  sw::Options cached;
  cached.cache =
      parallax::cache::CompilationCache::open({.directory = dir.string()});
  const auto through_cache =
      sw::run(circuits, {"parallax-race"}, machines, cached);
  const auto without_cache =
      sw::run(circuits, {"parallax-race"}, machines, sw::Options{});
  ASSERT_TRUE(without_cache.cells.at(0).ok())
      << without_cache.cells.at(0).error;
  EXPECT_EQ(through_cache.placement_disk_hits, 0u);
  // Compared as a bool: a mismatch would otherwise print kilobytes of bytes.
  EXPECT_TRUE(parallax::shard::canonical_bytes(through_cache) ==
              parallax::shard::canonical_bytes(without_cache))
      << "the race cell differs from its cacheless compilation";
  fs::remove_all(dir);
}

TEST(Sweep, AtRequiresMachineLabelOnMultiMachineSweep) {
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  const auto atom = ph::HardwareConfig::atom_computing_1225();
  const auto swept = sw::run({{"ghz8", ghz(8, "ghz8")}}, {"static"},
                             {{"quera", quera}, {"atom", atom}},
                             fast_sweep_options());
  EXPECT_THROW((void)swept.at("ghz8", "static"), std::logic_error);
  EXPECT_EQ(swept.at("ghz8", "static", "atom").machine, "atom");
}

TEST(Sweep, SharePlacementsDisabledStillMatches) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  const auto shared = sw::run(small_circuits(), {"parallax", "graphine"},
                              {{config.name, config}}, options);
  options.share_placements = false;
  const auto unshared = sw::run(small_circuits(), {"parallax", "graphine"},
                                {{config.name, config}}, options);
  EXPECT_EQ(unshared.placement_cache_misses, 0u);
  expect_same_cells(shared, unshared);
}

// --- session placement memo --------------------------------------------------

TEST(Sweep, SessionSharesPlacementsAcrossRuns) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const std::vector<std::string> techniques = {"parallax", "graphine"};
  auto options = fast_sweep_options();
  const auto sessionless = sw::run(small_circuits(), techniques,
                                   {{config.name, config}}, options);

  options.session = std::make_shared<sw::Session>();
  const auto first = sw::run(small_circuits(), techniques,
                             {{config.name, config}}, options);
  const auto second = sw::run(small_circuits(), techniques,
                              {{config.name, config}}, options);
  EXPECT_EQ(first.anneals, small_circuits().size());
  EXPECT_EQ(second.anneals, 0u);
  EXPECT_EQ(second.placement_cache_misses, 0u);
  EXPECT_EQ(second.placement_cache_hits, second.cells.size());
  EXPECT_EQ(sh::canonical_bytes(first), sh::canonical_bytes(sessionless));
  EXPECT_EQ(sh::canonical_bytes(second), sh::canonical_bytes(sessionless));
}

TEST(Sweep, SharedSessionIsThreadCountInvariant) {
  // Two overlapping specs through one session: the anneal split between
  // the runs and every byte must not depend on the thread count.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto circuits = small_circuits();
  const std::vector<sw::CircuitSpec> overlap = {circuits[2], circuits[0]};
  std::vector<std::size_t> anneals[2];
  std::vector<std::string> bytes[2];
  for (const std::size_t threads : {1u, 4u}) {
    const std::size_t k = threads == 1 ? 0 : 1;
    auto options = fast_sweep_options();
    options.n_threads = threads;
    options.session = std::make_shared<sw::Session>();
    for (const auto* spec : {&circuits, &overlap}) {
      const auto result = sw::run(*spec, {"parallax", "graphine", "static"},
                                  {{config.name, config}}, options);
      anneals[k].push_back(result.anneals);
      bytes[k].push_back(sh::canonical_bytes(result));
    }
  }
  EXPECT_EQ(anneals[0], (std::vector<std::size_t>{circuits.size(), 0}));
  EXPECT_EQ(anneals[0], anneals[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(Sweep, SharePlacementsFalseBypassesTheSession) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.session = std::make_shared<sw::Session>();
  const auto shared = sw::run(small_circuits(), {"parallax", "graphine"},
                              {{config.name, config}}, options);
  ASSERT_EQ(options.session->placements.size(), small_circuits().size());

  options.share_placements = false;
  const auto unshared = sw::run(small_circuits(), {"parallax", "graphine"},
                                {{config.name, config}}, options);
  // Every cell anneals its own placement inside its pipeline, although the
  // session already holds every one of them.
  EXPECT_EQ(unshared.anneals, unshared.cells.size());
  EXPECT_EQ(unshared.placement_cache_hits, 0u);
  EXPECT_EQ(unshared.placement_cache_misses, 0u);
  EXPECT_EQ(options.session->placements.size(), small_circuits().size());
  expect_same_cells(shared, unshared);
}

TEST(SessionMemo, ThrowingComputeLeavesNoEntry) {
  sw::Session session;
  const parallax::cache::Digest128 key{1, 2};
  sw::MemoCounters counters;
  std::thread waiter;
  std::string waiter_error;
  bool waiter_computed = false;
  EXPECT_THROW(
      (void)session.placements.get(
          key,
          [&]() -> parallax::placement::Topology {
            // A second caller blocks on the in-flight key; once it is
            // counted as a hit, the owner fails.
            waiter = std::thread([&] {
              try {
                (void)session.placements.get(
                    key,
                    [&] {
                      waiter_computed = true;
                      return parallax::placement::Topology{};
                    },
                    &counters);
              } catch (const std::runtime_error& error) {
                waiter_error = error.what();
              }
            });
            while (counters.hits.load() == 0) std::this_thread::yield();
            throw std::runtime_error("transient");
          },
          &counters),
      std::runtime_error);
  waiter.join();
  EXPECT_EQ(waiter_error, "transient");  // the waiter shares the failure
  EXPECT_FALSE(waiter_computed);
  EXPECT_EQ(session.placements.size(), 0u);

  // A later caller retries instead of replaying the stored exception.
  parallax::placement::Topology good;
  good.positions = {{0.25, 0.75}};
  const auto value = session.placements.get(key, [&] { return good; },
                                            &counters);
  EXPECT_EQ(value->positions.size(), 1u);
  EXPECT_EQ(counters.misses.load(), 2u);
  EXPECT_EQ(counters.hits.load(), 1u);
  EXPECT_EQ(session.placements.size(), 1u);
}

TEST(SessionMemo, EvictsCompletedEntriesPastTheBudget) {
  parallax::placement::Topology topology;
  topology.positions.assign(8, {0.5, 0.5});
  // Room for two topologies of this size, not three.
  const std::size_t one = sizeof(topology) + 8 * sizeof(topology.positions[0]);
  sw::Session session(2 * one + one / 2);
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return topology;
  };
  for (std::uint64_t k = 0; k < 3; ++k) {
    (void)session.placements.get({k, 0}, compute);
  }
  EXPECT_EQ(session.placements.size(), 2u);
  EXPECT_EQ(computed, 3);
  (void)session.placements.get({2, 0}, compute);  // newest: still held
  EXPECT_EQ(computed, 3);
  (void)session.placements.get({0, 0}, compute);  // oldest: evicted
  EXPECT_EQ(computed, 4);
  EXPECT_EQ(session.placements.size(), 2u);
}

TEST(Sweep, UnknownTechniqueThrowsUpFront) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  EXPECT_THROW((void)sw::run(small_circuits(), {"parallax", "nope"},
                             {{config.name, config}}),
               pt::UnknownTechniqueError);
}

TEST(Sweep, OversizedCellReportsErrorOthersComplete) {
  auto tiny = ph::HardwareConfig::quera_aquila_256();
  tiny.grid_side = 2;  // 4 atoms
  tiny.name = "tiny4";
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  const auto swept = sw::run(small_circuits(), {"eldi"},
                             {{"tiny4", tiny}, {"quera", quera}},
                             fast_sweep_options());
  for (const auto& cell : swept.cells) {
    if (cell.machine == "tiny4") {
      EXPECT_FALSE(cell.ok()) << cell.circuit;
      EXPECT_NE(cell.error.find("atoms"), std::string::npos);
    } else {
      EXPECT_TRUE(cell.ok()) << cell.circuit << ": " << cell.error;
    }
  }
}

TEST(Sweep, AtLookupAndMissing) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto swept = sw::run(small_circuits(), {"static"},
                             {{config.name, config}}, fast_sweep_options());
  const auto& cell = swept.at("ghz8", "static");
  EXPECT_EQ(cell.circuit, "ghz8");
  EXPECT_EQ(cell.technique, "static");
  EXPECT_THROW((void)swept.at("ghz8", "parallax"), std::out_of_range);
  EXPECT_THROW((void)swept.at("nope", "static"), std::out_of_range);
}

TEST(Sweep, ShotPlansWhenRequested) {
  const auto config = ph::HardwareConfig::atom_computing_1225();
  auto options = fast_sweep_options();
  options.compile.discretize.spread_factor = 1.2;
  options.shots = parallax::shots::ShotOptions{};
  const auto swept = sw::run({{"ghz8", ghz(8, "ghz8")}}, {"parallax"},
                             {{config.name, config}}, options);
  const auto& cell = swept.at("ghz8", "parallax");
  ASSERT_TRUE(cell.ok()) << cell.error;
  ASSERT_FALSE(cell.shot_plans.empty());
  EXPECT_EQ(cell.shot_plans.front().copies_per_dim, 1);
  // More copies never slow the total down.
  for (std::size_t i = 1; i < cell.shot_plans.size(); ++i) {
    EXPECT_LE(cell.shot_plans[i].total_execution_time_us,
              cell.shot_plans[i - 1].total_execution_time_us);
  }
}

TEST(Sweep, BenchmarkCircuitHelpers) {
  parallax::bench_circuits::GenOptions gen;
  gen.seed = 42;
  const auto specs = sw::benchmark_circuits({"QAOA", "QFT"}, gen);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "QAOA");
  EXPECT_GT(specs[0].circuit.size(), 0u);
  EXPECT_EQ(sw::all_benchmark_circuits(gen).size(), 18u);
  EXPECT_THROW((void)sw::benchmark_circuits({"NOPE"}, gen),
               std::invalid_argument);
}
