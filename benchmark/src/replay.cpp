#include "replay.hpp"

#include <map>
#include <set>
#include <utility>

#include "cache/fingerprint.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/transpile.hpp"
#include "noise/model.hpp"
#include "pipeline/passes.hpp"
#include "placement/graphine.hpp"
#include "placement/windowed.hpp"
#include "shots/parallelize.hpp"
#include "sim/simulator.hpp"
#include "technique/registry.hpp"
#include "util/rng.hpp"

namespace pbench {
namespace {

namespace passes = parallax::pipeline::passes;
using parallax::cache::Digest128;

/// Every pass a technique can name, with the span its replay records.
struct Stage {
  parallax::pipeline::Pass pass;
  const char* span;
};

const std::map<std::string, Stage>& stages() {
  static const std::map<std::string, Stage> table = {
      {"transpile", {passes::transpile(), "circuit.transpile"}},
      {"graphine-placement",
       {passes::graphine_placement(), "placement.anneal"}},
      {"eldi-placement",
       {passes::eldi_placement(), "baselines.eldi_placement"}},
      {"identity-placement",
       {passes::identity_placement(), "baselines.identity_placement"}},
      {"discretize", {passes::discretize(), "placement.discretize"}},
      {"aod-selection", {passes::aod_selection(), "parallax.aod_selection"}},
      {"schedule", {passes::schedule(), "parallax.schedule"}},
      {"swap-route", {passes::swap_route(), "baselines.swap_route"}},
      {"static-schedule",
       {passes::static_schedule(), "baselines.static_schedule"}},
  };
  return table;
}

}  // namespace

ReplayTotals replay(const std::vector<ReplayItem>& items,
                    parallax::cache::CompilationCache* cache, Tracer& tracer,
                    Checks& checks) {
  using namespace parallax;
  const technique::Registry& registry = technique::Registry::global();
  ReplayTotals totals;

  std::map<std::pair<Digest128, Digest128>, circuit::Circuit> transpiled;
  std::map<const circuit::Circuit*, Digest128> fingerprints;
  std::map<Digest128, placement::Topology> placements;
  std::set<Digest128> compiled;

  for (const ReplayItem& item : items) {
    const shard::SweepSpec& spec = *item.spec;
    const sweep::Options& options = spec.options;
    const std::size_t n_techniques = spec.techniques.size();
    const std::size_t n_machines = spec.machines.size();
    for (std::size_t flat = 0; flat < spec.total_cells(); ++flat) {
      const std::size_t ci = flat / (n_techniques * n_machines);
      const std::size_t ti = (flat / n_machines) % n_techniques;
      const std::size_t mi = flat % n_machines;
      const sweep::CircuitSpec& circuit_spec = spec.circuits[ci];
      const std::string& technique = spec.techniques[ti];
      const sweep::MachineSpec& machine = spec.machines[mi];
      const sweep::Cell& observed = item.observed->cells.at(flat);
      ++totals.cells;

      pipeline::CompileOptions opts = options.compile;
      if (options.customize) {
        options.customize(circuit_spec.name, technique, machine.name, opts);
      }
      registry.apply_tuning(technique, opts);

      // One transpile per (circuit, transpile options), as in sweep::run.
      const circuit::Circuit* input = &circuit_spec.circuit;
      if (!opts.assume_transpiled) {
        pipeline::CompileOptions transpile_only;
        transpile_only.transpile = opts.transpile;
        const auto key = std::make_pair(cache::fingerprint(*input),
                                        cache::fingerprint(transpile_only));
        auto it = transpiled.find(key);
        if (it == transpiled.end()) {
          auto span = tracer.span("circuit.transpile", SpanKind::kWork,
                                  kReplayTid);
          it = transpiled
                   .emplace(key, circuit::transpile(*input, opts.transpile))
                   .first;
          totals.gates_out += it->second.size();
        }
        input = &it->second;
        opts.assume_transpiled = true;
      }
      auto fp = fingerprints.find(input);
      if (fp == fingerprints.end()) {
        fp = fingerprints.emplace(input, cache::fingerprint(*input)).first;
      }

      const pipeline::Pipeline pipeline =
          registry.make_pipeline(technique, opts);
      const cache::Digest128 result_key = cache::result_key(
          fp->second, technique, pipeline.pass_names(), machine.config, opts,
          options.compute_success_probability ? &options.noise : nullptr,
          options.shots ? &*options.shots : nullptr);
      if (cache != nullptr) {
        auto span = tracer.span("cache.get", SpanKind::kWork, kReplayTid);
        if (cache->get_result(result_key)) {
          span.set_kind(SpanKind::kHit);
          continue;
        }
      } else if (!compiled.insert(result_key).second) {
        continue;
      }
      ++totals.compiled;

      // One anneal per placement key, consulting the disk tier first.
      if (options.share_placements &&
          input->n_qubits() <= machine.config.n_atoms() &&
          !opts.preset_topology && pipeline.contains("graphine-placement")) {
        placement::GraphineOptions popts = opts.placement;
        popts.seed = util::derive_seed(opts.seed, input->name(),
                                       util::kPlacementSeedSalt);
        if (popts.max_window_qubits > 0 &&
            input->n_qubits() <= popts.max_window_qubits) {
          popts.max_window_qubits = 0;
        }
        const cache::Digest128 placement_key =
            cache::placement_key(fp->second, popts);
        auto it = placements.find(placement_key);
        if (it == placements.end()) {
          std::optional<placement::Topology> topology;
          if (cache != nullptr) {
            auto span = tracer.span("cache.get", SpanKind::kWork, kReplayTid);
            topology = cache->get_placement(placement_key);
            if (topology) span.set_kind(SpanKind::kHit);
          }
          if (!topology) {
            // The anneal itself, as sweep::run runs it: windowed placements
            // look each window up in the disk tier and store fresh ones.
            const circuit::InteractionGraph graph(*input);
            placement::PlacementStats stats;
            placement::WindowHooks hooks;
            if (cache != nullptr) {
              const auto window_key = [](const placement::WindowContext& w) {
                return cache::placement_key(cache::fingerprint(*w.subgraph),
                                            *w.options);
              };
              hooks.lookup = [&](const placement::WindowContext& window) {
                auto span =
                    tracer.span("cache.get", SpanKind::kWork, kReplayTid);
                auto stored = cache->get_placement(window_key(window));
                if (stored) span.set_kind(SpanKind::kHit);
                return stored;
              };
              hooks.store = [&](const placement::WindowContext& window,
                                const placement::Topology& layout) {
                auto span =
                    tracer.span("cache.put", SpanKind::kWork, kReplayTid);
                cache->put_placement(window_key(window), layout);
              };
            }
            {
              auto span = tracer.span("placement.anneal", SpanKind::kWork,
                                      kReplayTid);
              topology =
                  placement::windowing_applies(graph, popts)
                      ? placement::windowed_place(
                            graph, popts, &stats,
                            cache != nullptr ? &hooks : nullptr)
                      : placement::graphine_place(graph, popts, &stats);
            }
            totals.evaluations += static_cast<std::uint64_t>(
                stats.evaluations + stats.delta_evaluations);
            totals.windows += static_cast<std::uint64_t>(stats.windows);
            if (cache != nullptr) {
              auto span =
                  tracer.span("cache.put", SpanKind::kWork, kReplayTid);
              cache->put_placement(placement_key, *topology);
            }
          }
          it = placements.emplace(placement_key, std::move(*topology)).first;
        }
        opts.preset_topology = it->second;
      }

      // The pipeline proper, pass by pass.
      if (opts.fidelity.model == noise::FidelityModel::kSimulated) {
        opts.scheduler.record_positions = true;
      }
      const bool preset = opts.preset_topology.has_value();
      pipeline::CompileContext context(*input, machine.config, opts);
      context.result.technique = technique;
      for (const auto& name : pipeline.pass_names()) {
        const Stage& stage = stages().at(name);
        // Memoized products (the shared transpile, an injected placement)
        // are hits, not work.
        const bool hit =
            name == "transpile" || (name == "graphine-placement" && preset);
        auto span = tracer.span(stage.span,
                                hit ? SpanKind::kHit : SpanKind::kWork,
                                kReplayTid);
        stage.pass.run(context);
      }
      compiler::CompileResult result = std::move(context.result);

      double success = 0.0;
      if (options.compute_success_probability) {
        if (opts.fidelity.model == noise::FidelityModel::kSimulated) {
          auto span = tracer.span("sim.simulate", SpanKind::kWork, kReplayTid);
          sim::SimOptions sim_options;
          sim_options.shots = opts.fidelity.shots;
          sim_options.seed = util::derive_seed(opts.seed, input->name(),
                                               util::kSimSeedSalt);
          sim_options.channels = options.noise;
          sim_options.moving_decoherence_scale =
              opts.fidelity.moving_decoherence_scale;
          sim_options.n_threads = 1;
          success = sim::simulate(result, machine.config, sim_options).mean();
          totals.sim_shots += static_cast<std::uint64_t>(sim_options.shots);
        } else {
          auto span = tracer.span("noise.fidelity", SpanKind::kWork,
                                  kReplayTid);
          success = noise::success_probability(result, machine.config,
                                               options.noise);
        }
      }
      std::vector<shots::ParallelPlan> shot_plans;
      if (options.shots || item.plan_shots) {
        auto span = tracer.span("shots.plan", SpanKind::kWork, kReplayTid);
        shot_plans = shots::parallelization_sweep(
            result, machine.config,
            options.shots ? *options.shots : shots::ShotOptions{});
      }

      checks.expect(
          observed.ok() && result.runtime_us == observed.result.runtime_us &&
              result.stats.layers == observed.result.stats.layers &&
              result.stats.effective_cz() ==
                  observed.result.stats.effective_cz() &&
              success == observed.success_probability,
          "replay of " + circuit_spec.name + "/" + technique + "/" +
              machine.name + " differs from the workload's cell");

      if (cache != nullptr) {
        auto span = tracer.span("cache.put", SpanKind::kWork, kReplayTid);
        cache::CachedCell stored;
        stored.result = std::move(result);
        stored.has_success_probability = options.compute_success_probability;
        stored.success_probability = success;
        stored.has_shot_plans = options.shots.has_value();
        if (options.shots) stored.shot_plans = std::move(shot_plans);
        cache->put_result(result_key, stored);
      }
    }
  }
  return totals;
}

}  // namespace pbench
