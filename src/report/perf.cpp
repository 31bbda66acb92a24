#include "report/perf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "anneal/kernels.hpp"
#include "bench_circuits/registry.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "parallax/compiler.hpp"
#include "placement/graphine.hpp"
#include "qasm/stream_parser.hpp"
#include "qasm/writer.hpp"
#include "serve/protocol.hpp"
#include "shard/spec.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace parallax::report {

namespace {

/// The largest table04 circuit — the cold-anneal cost ceiling the hot-path
/// work is gated on.
constexpr const char* kGateCircuit = "TFIM";

/// The gated metric: the delta anneal's wall over the legacy anneal's, both
/// measured in this process. A unique top-level snapshot key, so
/// `scan_json_number` reads it unambiguously.
constexpr const char* kGateKey = "gate_delta_over_legacy";

/// Legacy/delta anneal rounds behind the gate ratio.
constexpr int kGateRounds = 5;

/// The fastest of the cold anneals folded into it so far (wall noise is
/// one-sided, so the minimum is the stable estimator).
struct AnnealSample {
  double wall_seconds = 1e300;  // until the first anneal is folded in
  placement::PlacementStats stats;
  double objective = 0.0;
  double interaction_radius = 0.0;
};

/// Runs one cold anneal of `graph` under `popts` and keeps it in `best` if
/// it is the fastest yet.
void anneal_once(const circuit::InteractionGraph& graph,
                 const placement::GraphineOptions& popts, AnnealSample& best) {
  placement::PlacementStats stats;
  const placement::Topology topology =
      placement::graphine_place(graph, popts, &stats);
  if (stats.anneal_seconds >= best.wall_seconds) return;
  best.wall_seconds = stats.anneal_seconds;
  best.stats = stats;
  best.interaction_radius = topology.interaction_radius;
  std::vector<double> coords(2 * topology.positions.size());
  for (std::size_t q = 0; q < topology.positions.size(); ++q) {
    coords[2 * q] = topology.positions[q].x;
    coords[2 * q + 1] = topology.positions[q].y;
  }
  // Scored with the legacy objective so all modes are directly comparable.
  best.objective = placement::placement_objective(coords, graph, popts);
}

/// Min-of-`repeats` cold anneal of `graph` under `popts`.
AnnealSample measure_anneal(const circuit::InteractionGraph& graph,
                            const placement::GraphineOptions& popts,
                            int repeats) {
  AnnealSample best;
  for (int r = 0; r < repeats; ++r) anneal_once(graph, popts, best);
  return best;
}

util::JsonValue anneal_json(const AnnealSample& sample) {
  auto node = util::JsonValue::object();
  node["wall_seconds"] = sample.wall_seconds;
  node["evaluations"] = sample.stats.evaluations;
  node["delta_evaluations"] = sample.stats.delta_evaluations;
  const double total = static_cast<double>(sample.stats.evaluations +
                                           sample.stats.delta_evaluations);
  node["evaluations_per_second"] =
      sample.wall_seconds > 0.0 ? total / sample.wall_seconds : 0.0;
  node["restarts"] = sample.stats.restarts;
  node["local_searches"] = sample.stats.local_searches;
  node["chains"] = sample.stats.chains;
  node["objective"] = sample.objective;
  node["interaction_radius"] = sample.interaction_radius;
  if (!sample.stats.portfolio_winner.empty()) {
    node["winner"] = sample.stats.portfolio_winner;
    auto entrants = util::JsonValue::array();
    for (const auto& entrant : sample.stats.entrants) {
      auto row = util::JsonValue::object();
      row["name"] = entrant.name;
      row["value"] = entrant.value;
      row["wall_seconds"] = entrant.wall_seconds;
      row["evaluations"] = entrant.evaluations;
      row["delta_evaluations"] = entrant.delta_evaluations;
      row["winner"] = entrant.winner;
      entrants.push_back(std::move(row));
    }
    node["entrants"] = std::move(entrants);
  }
  return node;
}

bool write_text(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

std::optional<std::string> read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buffer).str();
}

placement::GraphineOptions technique_placement_options(
    const char* technique, std::uint64_t master_seed,
    const std::string& circuit_name) {
  pipeline::CompileOptions options;
  if (technique != nullptr) {
    technique::Registry::global().apply_tuning(technique, options);
  }
  placement::GraphineOptions popts = options.placement;
  popts.seed =
      util::derive_seed(master_seed, circuit_name, util::kPlacementSeedSalt);
  return popts;
}

}  // namespace

std::optional<double> scan_json_number(const std::string& text,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t cursor = at + needle.size();
  while (cursor < text.size() &&
         (text[cursor] == ':' || text[cursor] == ' ' || text[cursor] == '\t')) {
    ++cursor;
  }
  const char* begin = text.c_str() + cursor;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  // JSON has no nan or inf literals; strtod would accept them.
  if (end == begin || !std::isfinite(value)) return std::nullopt;
  return value;
}

int run_perf_snapshot(const std::string& path, const PerfOptions& options,
                      std::FILE* log) {
  // A baseline that cannot gate fails before anything is measured.
  std::optional<double> baseline_ratio;
  if (!options.baseline_path.empty()) {
    const auto baseline = read_text(options.baseline_path);
    if (!baseline) {
      std::fprintf(log, "[perf] FAILED to read baseline %s\n",
                   options.baseline_path.c_str());
      return 1;
    }
    baseline_ratio = scan_json_number(*baseline, kGateKey);
    if (!baseline_ratio || *baseline_ratio <= 0.0) {
      std::fprintf(log, "[perf] baseline %s has no positive %s\n",
                   options.baseline_path.c_str(), kGateKey);
      return 1;
    }
  }

  bench_circuits::GenOptions gen;
  gen.seed = options.seed;

  // --- Anneal A/B on the largest table04 circuit, cache-disabled ----------
  const circuit::Circuit raw =
      bench_circuits::make_benchmark(kGateCircuit, gen);
  const circuit::Circuit circuit = circuit::transpile(raw);
  const circuit::InteractionGraph graph(circuit);

  // Legacy and delta alternate, so whatever the host does to one round hits
  // both paths alike and their ratio holds where absolute walls drift.
  std::fprintf(log, "[perf] cold anneal A/B on %s (%d qubits)...\n",
               kGateCircuit, graph.n_qubits());
  const placement::GraphineOptions legacy_options =
      technique_placement_options(nullptr, options.seed, circuit.name());
  const placement::GraphineOptions fast_options = technique_placement_options(
      "parallax-fast", options.seed, circuit.name());
  AnnealSample legacy;
  AnnealSample fast;
  for (int r = 0; r < kGateRounds; ++r) {
    anneal_once(graph, legacy_options, legacy);
    anneal_once(graph, fast_options, fast);
  }
  const AnnealSample mc4 = measure_anneal(
      graph,
      technique_placement_options("parallax-mc4", options.seed,
                                  circuit.name()),
      2);
  const AnnealSample race = measure_anneal(
      graph,
      technique_placement_options("parallax-race", options.seed,
                                  circuit.name()),
      2);

  const double gate_ratio = fast.wall_seconds / legacy.wall_seconds;
  const double fast_speedup = 1.0 / gate_ratio;
  const double mc4_per_chain =
      mc4.wall_seconds / static_cast<double>(std::max(mc4.stats.chains, 1));
  std::fprintf(log,
               "[perf] legacy %.1fms | delta %.1fms (%.1fx) | mc4 %.1fms "
               "(%.1fms/chain, objective %.1f vs %.1f)\n",
               legacy.wall_seconds * 1e3, fast.wall_seconds * 1e3,
               fast_speedup, mc4.wall_seconds * 1e3, mc4_per_chain * 1e3,
               mc4.objective, legacy.objective);
  std::fprintf(log,
               "[perf] race %.1fms (winner %s, objective %.1f) | simd %s\n",
               race.wall_seconds * 1e3,
               race.stats.portfolio_winner.empty()
                   ? "-"
                   : race.stats.portfolio_winner.c_str(),
               race.objective,
               anneal::kernels::lane_name(anneal::kernels::active_lane()));

  // --- Streaming QASM parse throughput ------------------------------------
  // Writer-realistic source (full-precision angles, exactly what
  // qasm::write emits) through the pull parser with a counting visitor —
  // the import hot path. Min-of-3 wall, like the anneal A/B.
  double qasm_wall = 1e300;
  std::size_t qasm_bytes = 0;
  std::uint64_t qasm_gates = 0;
  {
    util::Rng qrng(options.seed ^ 0x51A3u);
    circuit::Circuit synthetic(256, "perf_parse");
    constexpr int kParseGates = 200000;
    for (int g = 0; g < kParseGates; ++g) {
      const auto a = static_cast<std::int32_t>(qrng.next_below(256));
      auto b = static_cast<std::int32_t>(qrng.next_below(256));
      if (b == a) b = (a + 1) % 256;
      if (g % 2 == 0) {
        synthetic.u3(a, qrng.uniform(0.0, 6.28), qrng.uniform(-3.14, 3.14),
                     qrng.uniform(0.0, 6.28));
      } else {
        synthetic.cz(a, b);
      }
    }
    const std::string source = qasm::to_qasm(synthetic);
    qasm_bytes = source.size();
    class CountOnly final : public qasm::GateStreamVisitor {
     public:
      void on_gate(const circuit::Gate&) override {}
    };
    for (int r = 0; r < 3; ++r) {
      qasm::ViewStreamBuf buf(source);
      std::istream in(&buf);
      qasm::StreamParser parser(in, "perf_parse.qasm");
      CountOnly visitor;
      const util::Stopwatch parse_watch;
      const qasm::StreamTotals totals = parser.run(visitor);
      qasm_wall = std::min(qasm_wall, parse_watch.seconds());
      qasm_gates = totals.n_gates;
    }
    std::fprintf(log, "[perf] qasm parse: %.1f MB in %.1fms (%.0f MB/s)\n",
                 static_cast<double>(qasm_bytes) / 1e6, qasm_wall * 1e3,
                 qasm_wall > 0.0
                     ? static_cast<double>(qasm_bytes) / 1e6 / qasm_wall
                     : 0.0);
  }

  // The fixed matrix behind the request-line parse and the simulator.
  const auto config = hardware::HardwareConfig::quera_aquila_256();
  const std::vector<std::string> acronyms = {"WST", "QAOA", "TFIM", "QV"};
  const std::vector<std::string> techniques = {"parallax", "parallax-mc4"};
  const auto circuits = sweep::benchmark_circuits(acronyms, gen);

  // --- parse_request_line micro-benchmark ---------------------------------
  // The SUBMIT fast path: one multi-megabyte hex spec line tokenized in
  // place (no line copy) and decoded. Min-of-5 wall, like the anneal A/B.
  double parse_wall = 1e300;
  std::size_t parse_line_bytes = 0;
  {
    shard::SweepSpec spec;
    spec.circuits = circuits;
    spec.techniques = techniques;
    spec.machines = {{config.name, config}};
    spec.options.compile.seed = options.seed;
    std::string line = serve::submit_line(7, spec);
    line.pop_back();  // parse_request_line takes the line sans newline
    parse_line_bytes = line.size();
    for (int r = 0; r < 5; ++r) {
      const util::Stopwatch parse_watch;
      const serve::RequestLine parsed = serve::parse_request_line(line);
      const double wall = parse_watch.seconds();
      if (parsed.spec.total_cells() != spec.total_cells()) {
        std::fprintf(log, "[perf] FAILED: parse round-trip mismatch\n");
        return 1;
      }
      parse_wall = std::min(parse_wall, wall);
    }
    std::fprintf(log, "[perf] parse_request_line: %.2f MB line in %.2fms\n",
                 static_cast<double>(parse_line_bytes) / 1e6,
                 parse_wall * 1e3);
  }

  // --- Simulator shot throughput on WST ------------------------------------
  constexpr const char* kSimCircuit = "WST";
  constexpr std::int64_t kSimShots = 4096;
  std::fprintf(log, "[perf] simulating %lld shots of %s/parallax...\n",
               static_cast<long long>(kSimShots), kSimCircuit);
  pipeline::CompileOptions sim_compile;
  sim_compile.seed = options.seed;
  sim_compile.scheduler.record_positions = true;
  const compiler::CompileResult sim_schedule = compiler::compile(
      bench_circuits::make_benchmark(kSimCircuit, gen), config, sim_compile);
  sim::SimOptions sim_options;
  sim_options.shots = kSimShots;
  sim_options.seed =
      util::derive_seed(options.seed, kSimCircuit, util::kSimSeedSalt);
  sim_options.n_threads = options.threads;
  const util::Stopwatch sim_watch;
  const sim::SurvivalEstimate sim_estimate =
      sim::simulate(sim_schedule, config, sim_options);
  const double sim_wall = sim_watch.seconds();
  const double sim_model = noise::success_probability(sim_schedule, config);
  std::fprintf(log,
               "[perf] sim %.3fs (%.0f shots/s), survival %.4f vs model "
               "%.4f\n",
               sim_wall,
               sim_wall > 0.0 ? static_cast<double>(kSimShots) / sim_wall
                              : 0.0,
               sim_estimate.mean(), sim_model);

  // --- Snapshot ------------------------------------------------------------
  auto root = util::JsonValue::object();
  root["schema"] = "parallax-perf-snapshot-v2";
  // The CI-gated headline. Both walls are single-chain, so the ratio does
  // not depend on the core count.
  root[kGateKey] = gate_ratio;
  root["gate_circuit"] = kGateCircuit;
  root["gate_qubits"] = graph.n_qubits();
  root["seed"] = static_cast<double>(options.seed);
  // Which kernel lane the anneal numbers above were measured with (scalar,
  // sse2, or avx2) — snapshots from different hosts are only comparable
  // lane-for-lane.
  root["simd_lane"] =
      std::string(anneal::kernels::lane_name(anneal::kernels::active_lane()));

  auto anneal = util::JsonValue::object();
  anneal["legacy"] = anneal_json(legacy);
  anneal["delta_single_chain"] = anneal_json(fast);
  anneal["delta_mc4"] = anneal_json(mc4);
  anneal["race"] = anneal_json(race);
  anneal["delta_speedup_vs_legacy"] = fast_speedup;
  anneal["mc4_per_chain_wall_seconds"] = mc4_per_chain;
  anneal["mc4_per_chain_speedup_vs_legacy"] =
      mc4_per_chain > 0.0 ? legacy.wall_seconds / mc4_per_chain : 0.0;
  root["anneal"] = std::move(anneal);

  auto qasm_node = util::JsonValue::object();
  qasm_node["source_bytes"] = qasm_bytes;
  qasm_node["gates"] = qasm_gates;
  qasm_node["wall_seconds"] = qasm_wall;
  qasm_node["mb_per_second"] =
      qasm_wall > 0.0 ? static_cast<double>(qasm_bytes) / 1e6 / qasm_wall
                      : 0.0;
  qasm_node["gates_per_second"] =
      qasm_wall > 0.0 ? static_cast<double>(qasm_gates) / qasm_wall : 0.0;
  root["qasm_parse"] = std::move(qasm_node);

  auto parse_node = util::JsonValue::object();
  parse_node["line_bytes"] = parse_line_bytes;
  parse_node["wall_seconds"] = parse_wall;
  parse_node["mb_per_second"] =
      parse_wall > 0.0
          ? static_cast<double>(parse_line_bytes) / 1e6 / parse_wall
          : 0.0;
  root["parse_request_line"] = std::move(parse_node);

  auto sim_node = util::JsonValue::object();
  sim_node["circuit"] = kSimCircuit;
  sim_node["shots"] = sim_estimate.shots;
  sim_node["wall_seconds"] = sim_wall;
  sim_node["shots_per_second"] =
      sim_wall > 0.0 ? static_cast<double>(sim_estimate.shots) / sim_wall
                     : 0.0;
  sim_node["survival_mean"] = sim_estimate.mean();
  sim_node["model_success"] = sim_model;
  sim_node["outcome_digest"] = sim_estimate.outcome_digest.hex();
  root["sim"] = std::move(sim_node);

  if (!write_text(path, root.dump(2) + "\n")) {
    std::fprintf(log, "[perf] FAILED to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(log, "[perf] snapshot written to %s\n", path.c_str());

  // --- Baseline gate -------------------------------------------------------
  // The legacy anneal is the in-process reference. When the legacy annealer
  // is retired, this reference must move to another fixed workload.
  if (baseline_ratio) {
    const double limit = *baseline_ratio * (1.0 + options.tolerance);
    if (gate_ratio > limit) {
      std::fprintf(log,
                   "[perf] REGRESSION: anneal.delta_single_chain %.1fms / "
                   "anneal.legacy %.1fms = %.3f exceeds baseline %.3f by "
                   "more than %.0f%% (limit %.3f)\n",
                   fast.wall_seconds * 1e3, legacy.wall_seconds * 1e3,
                   gate_ratio, *baseline_ratio, options.tolerance * 100.0,
                   limit);
      return 1;
    }
    std::fprintf(log,
                 "[perf] gate ok: anneal.delta_single_chain %.1fms / "
                 "anneal.legacy %.1fms = %.3f vs baseline %.3f (limit "
                 "+%.0f%%)\n",
                 fast.wall_seconds * 1e3, legacy.wall_seconds * 1e3,
                 gate_ratio, *baseline_ratio, options.tolerance * 100.0);
  }
  return 0;
}

}  // namespace parallax::report
