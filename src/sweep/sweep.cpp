#include "sweep/sweep.hpp"

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cache/fields.hpp"
#include "cache/fingerprint.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/transpile.hpp"
#include "placement/graphine.hpp"
#include "placement/windowed.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace parallax::sweep {

namespace {

using util::Stopwatch;

/// Thread-safe memo keyed by a digest of its inputs. The first caller of a
/// key computes the value; concurrent callers of the same key wait on its
/// shared_future, so no placement is ever annealed twice.
template <typename V>
class Memo {
 public:
  /// The reference is into the memo's shared state and stays valid for the
  /// memo's lifetime.
  const V& get(const cache::Digest128& key, const std::function<V()>& compute,
               std::size_t* hits, std::size_t* misses) {
    std::shared_future<V> future;
    bool owner = false;
    std::promise<V> promise;
    {
      std::lock_guard lock(mutex_);
      auto it = futures_.find(key);
      if (it == futures_.end()) {
        owner = true;
        future = promise.get_future().share();
        futures_.emplace(key, future);
        ++*misses;
      } else {
        future = it->second;
        ++*hits;
      }
    }
    if (owner) {
      try {
        promise.set_value(compute());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();
  }

 private:
  std::mutex mutex_;
  std::map<cache::Digest128, std::shared_future<V>> futures_;
};

/// Overwrites the timing entry of `pass_name` (when present) with the cost
/// the sweep driver actually paid for that stage outside the pipeline —
/// memo/cache lookups run before Pipeline::run, so the in-pipeline pass is
/// a near-zero passthrough and its raw timing would misreport the stage.
void attribute_stage_timing(compiler::CompileResult& result,
                            std::string_view pass_name, double seconds,
                            bool cached, double wait_seconds = 0.0) {
  for (auto& timing : result.pass_timings) {
    if (timing.pass == pass_name) {
      timing.seconds = seconds;
      timing.cached = cached;
      timing.wait_seconds = wait_seconds;
      return;
    }
  }
}

}  // namespace

std::vector<CircuitSpec> benchmark_circuits(
    const std::vector<std::string>& acronyms,
    const bench_circuits::GenOptions& gen) {
  std::vector<CircuitSpec> specs;
  specs.reserve(acronyms.size());
  for (const auto& acronym : acronyms) {
    specs.push_back({acronym, bench_circuits::make_benchmark(acronym, gen)});
  }
  return specs;
}

std::vector<CircuitSpec> all_benchmark_circuits(
    const bench_circuits::GenOptions& gen) {
  std::vector<std::string> acronyms;
  for (const auto& info : bench_circuits::all_benchmarks()) {
    acronyms.push_back(info.acronym);
  }
  return benchmark_circuits(acronyms, gen);
}

const Cell& Result::at(std::string_view circuit, std::string_view technique,
                       std::string_view machine) const {
  if (machine.empty()) {
    for (const auto& cell : cells) {
      if (cell.machine_index > 0) {
        throw std::logic_error(
            "sweep::Result::at needs a machine label on a multi-machine "
            "sweep");
      }
    }
  }
  for (const auto& cell : cells) {
    if (cell.circuit == circuit && cell.technique == technique &&
        (machine.empty() || cell.machine == machine)) {
      return cell;
    }
  }
  throw std::out_of_range("no sweep cell for circuit '" +
                          std::string(circuit) + "', technique '" +
                          std::string(technique) + "', machine '" +
                          std::string(machine) + "'");
}

Result run(const std::vector<CircuitSpec>& circuits,
           const std::vector<std::string>& techniques,
           const std::vector<MachineSpec>& machines, const Options& options,
           const technique::Registry& registry) {
  // Fail fast on a name the registry does not know, before any threads run.
  for (const auto& name : techniques) (void)registry.info(name);

  const Stopwatch stopwatch;
  Result sweep_result;
  sweep_result.cells.resize(circuits.size() * techniques.size() *
                            machines.size());

  // Each circuit is transpiled once and shared by every (technique, machine)
  // cell with the same transpile options — the paper's Qiskit-preprocessing
  // methodology.
  Memo<circuit::Circuit> transpiled_memo;
  Memo<placement::Topology> placement_memo;
  // Content fingerprints of effective input circuits (persistent-cache keys
  // are content-addressed, never index-based, so they survive reordering of
  // the sweep matrix across runs).
  Memo<cache::Digest128> fingerprint_memo;
  std::size_t fingerprint_hits = 0;  // accounting only; not reported
  std::size_t fingerprint_misses = 0;

  cache::CompilationCache* const persistent = options.cache.get();
  std::atomic<std::size_t> placement_disk_hits{0};
  std::atomic<std::size_t> result_cache_hits{0};
  std::atomic<std::size_t> result_cache_misses{0};

  // Per-run anneal accounting: every site that actually runs a Graphine
  // anneal on behalf of this run (the placement memo below, or a pipeline
  // placement pass when no placement is injected) increments this counter —
  // never a process-global one, so concurrent runs stay disentangled.
  const std::shared_ptr<std::atomic<std::uint64_t>> anneal_counter =
      options.anneal_counter != nullptr
          ? options.anneal_counter
          : std::make_shared<std::atomic<std::uint64_t>>(0);
  const std::uint64_t anneals_before =
      anneal_counter->load(std::memory_order_relaxed);

  // The serve layer lends its persistent pool across requests; everyone
  // else gets a private pool for this run.
  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool* const pool = options.pool != nullptr
                                     ? options.pool
                                     : &owned_pool.emplace(options.n_threads);
  sweep_result.threads_used = pool->size();

  // The compile body proper, minus the per-cell bookkeeping that must also
  // run on its early returns (timing, the on_cell streaming hook).
  const auto compile_cell = [&](Cell& cell, std::size_t ci,
                                const CircuitSpec& spec,
                                const MachineSpec& machine) {
      pipeline::CompileOptions opts = options.compile;
      if (options.customize) {
        options.customize(cell.circuit, cell.technique, cell.machine, opts);
      }
      // Technique-declared option tuning (e.g. graphine-mc4 switching the
      // placement annealer to per-qubit multi-chain) applies after the
      // caller's customize hook and before any key is derived, so memo
      // keys, cache fingerprints, and the pipeline all see the same
      // effective options.
      registry.apply_tuning(cell.technique, opts);
      // Runtime-only hook (never fingerprinted): anneals a placement pass
      // runs inside the pipeline are charged to this run.
      opts.anneal_counter = anneal_counter;

      // Shared transpilation (no-op when the caller's inputs are already in
      // the {U3, CZ} basis). Keyed on the cell's effective transpile options
      // so a customize hook that changes them is honored, not silently
      // served another cell's circuit. Circuit names are preserved, so
      // per-circuit seed derivation is unchanged. The key is the circuit's
      // matrix index plus, when it is transpiled here, every
      // TranspileOptions field.
      const circuit::Circuit* input = &spec.circuit;
      cache::Fingerprinter input_fields;
      input_fields.u64(ci);
      input_fields.boolean(opts.assume_transpiled);
      if (!opts.assume_transpiled) {
        cache::write_fields(input_fields, opts.transpile);
      }
      const cache::Digest128 input_key = input_fields.finish();
      bool transpile_shared = false;
      double transpile_seconds = 0.0;
      if (!opts.assume_transpiled) {
        bool transpiled_here = false;
        const Stopwatch transpile_watch;
        input = &transpiled_memo.get(
            input_key,
            [&, transpile_options = opts.transpile] {
              transpiled_here = true;
              return circuit::transpile(spec.circuit, transpile_options);
            },
            &sweep_result.transpile_cache_hits,
            &sweep_result.transpile_cache_misses);
        transpile_seconds = transpile_watch.seconds();
        transpile_shared = !transpiled_here;
        opts.assume_transpiled = true;
      }

      // Content fingerprint of the effective input, shared per input_key.
      // Only needed (and only computed) when a persistent cache is wired in.
      const cache::Digest128* input_fp = nullptr;
      if (persistent != nullptr) {
        input_fp = &fingerprint_memo.get(
            input_key, [&] { return cache::fingerprint(*input); },
            &fingerprint_hits, &fingerprint_misses);
      }

      const pipeline::Pipeline pl = registry.make_pipeline(cell.technique,
                                                           opts);

      // Whole-cell short-circuit: the result key covers the effective
      // circuit, technique (name + pass list), machine, every compile
      // option, and which derived outputs (success probability, shot
      // plans) ride along — an incremental sweep recompiles exactly the
      // cells whose fingerprints changed.
      cache::Digest128 cell_key;
      const bool use_results = persistent != nullptr && options.reuse_results;
      if (use_results) {
        cell_key = cache::result_key(
            *input_fp, cell.technique, pl.pass_names(), machine.config, opts,
            options.compute_success_probability ? &options.noise : nullptr,
            options.shots ? &*options.shots : nullptr);
        if (auto hit = persistent->get_result(cell_key)) {
          cell.result = std::move(hit->result);
          cell.success_probability = hit->success_probability;
          cell.shot_plans = std::move(hit->shot_plans);
          cell.from_cache = true;
          for (const auto& pass : pl.pass_names()) {
            // Mirror the live pipeline's timing shape: the graphine pass
            // emits an "anneal" row ahead of its own.
            if (pass == "graphine-placement") {
              cell.result.pass_timings.push_back({"anneal", 0.0, true});
            }
            cell.result.pass_timings.push_back({pass, 0.0, true});
          }
          result_cache_hits.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        result_cache_misses.fetch_add(1, std::memory_order_relaxed);
      }

      const bool fits = input->n_qubits() <= machine.config.n_atoms();
      bool placement_injected = false;
      bool placement_annealed_here = false;
      bool placement_memo_hit = true;  // cleared when this cell computes it
      double placement_seconds = 0.0;
      double placement_wait_seconds = 0.0;
      double placement_anneal_seconds = 0.0;
      if (options.share_placements && fits && !opts.preset_topology &&
          pl.contains("graphine-placement")) {
        placement::GraphineOptions popts = opts.placement;
        popts.seed = util::derive_seed(opts.seed, input->name(),
                                       util::kPlacementSeedSalt);
        // Normalize before any key is derived: a window cap the circuit fits
        // under changes nothing, so it must not split memo keys or the
        // persistent fingerprint.
        if (popts.max_window_qubits > 0 &&
            input->n_qubits() <= popts.max_window_qubits) {
          popts.max_window_qubits = 0;
        }
        // Keyed by the effective input plus every GraphineOptions field, so
        // cells whose inputs or placement options diverge never share one.
        cache::Fingerprinter placement_fields;
        placement_fields.digest(input_key);
        cache::write_fields(placement_fields, popts);
        const Stopwatch placement_watch;
        opts.preset_topology = placement_memo.get(
            placement_fields.finish(),
            [&] {
              // The in-run memo missed: consult the persistent disk tier
              // before paying for an anneal, and persist fresh anneals so
              // no future run repeats them.
              placement_memo_hit = false;
              placement::PlacementStats stats;
              cache::Digest128 key;
              if (persistent != nullptr) {
                key = cache::placement_key(*input_fp, popts);
                if (auto stored = persistent->get_placement(key)) {
                  placement_disk_hits.fetch_add(1, std::memory_order_relaxed);
                  return std::move(*stored);
                }
              }
              const circuit::InteractionGraph graph(*input);
              placement::Topology topology;
              if (placement::windowing_applies(graph, popts)) {
                // Windowed path: each window's anneal is itself cached in
                // the persistent tier, keyed by the reindexed subgraph's
                // content plus its effective options — so even when the
                // whole-placement key misses (say, one window's structure
                // changed), every unchanged window replays from disk.
                placement::WindowHooks hooks;
                if (persistent != nullptr) {
                  hooks.lookup = [&](const placement::WindowContext& wctx)
                      -> std::optional<placement::Topology> {
                    const cache::Digest128 wkey = cache::placement_key(
                        cache::fingerprint(*wctx.subgraph), *wctx.options);
                    if (auto stored = persistent->get_placement(wkey)) {
                      placement_disk_hits.fetch_add(1,
                                                    std::memory_order_relaxed);
                      return std::move(*stored);
                    }
                    return std::nullopt;
                  };
                  hooks.store = [&](const placement::WindowContext& wctx,
                                    const placement::Topology& layout) {
                    const cache::Digest128 wkey = cache::placement_key(
                        cache::fingerprint(*wctx.subgraph), *wctx.options);
                    persistent->put_placement(wkey, layout);
                  };
                }
                topology = placement::windowed_place(
                    graph, popts, &stats,
                    persistent != nullptr ? &hooks : nullptr);
                placement_annealed_here = stats.windows_annealed > 0;
                anneal_counter->fetch_add(
                    static_cast<std::uint64_t>(stats.windows_annealed),
                    std::memory_order_relaxed);
              } else {
                placement_annealed_here = true;
                anneal_counter->fetch_add(1, std::memory_order_relaxed);
                topology = placement::graphine_place(graph, popts, &stats);
              }
              placement_anneal_seconds = stats.anneal_seconds;
              if (persistent != nullptr) {
                persistent->put_placement(key, topology);
              }
              return topology;
            },
            &sweep_result.placement_cache_hits,
            &sweep_result.placement_cache_misses);
        // A memo hit did no placement work: its time was spent blocked on
        // (or copying) the placement a sibling cell computed.
        if (placement_memo_hit) {
          placement_wait_seconds = placement_watch.seconds();
        } else {
          placement_seconds = placement_watch.seconds();
        }
        placement_injected = true;
      }

      cell.result = pl.run(*input, machine.config, opts);
      // Re-attribute the stage costs the driver paid outside the pipeline,
      // marking stages whose product came from a memo or the persistent
      // cache rather than being computed for this cell.
      if (transpile_seconds != 0.0 || transpile_shared) {
        attribute_stage_timing(cell.result, "transpile", transpile_seconds,
                               transpile_shared);
      }
      if (placement_injected) {
        attribute_stage_timing(cell.result, "graphine-placement",
                               placement_seconds, !placement_annealed_here,
                               placement_wait_seconds);
        attribute_stage_timing(cell.result, "anneal", placement_anneal_seconds,
                               !placement_annealed_here);
      }
      if (options.compute_success_probability) {
        if (opts.fidelity.model == noise::FidelityModel::kSimulated) {
          // Monte Carlo estimate via the discrete-event simulator, with the
          // sweep's noise channels. Single-threaded: the cell already runs
          // on a pool worker, and the shot streams are seed-derived, so the
          // estimate is identical however the shots are fanned out.
          sim::SimOptions sim_options;
          sim_options.shots = opts.fidelity.shots;
          sim_options.seed = util::derive_seed(opts.seed, input->name(),
                                               util::kSimSeedSalt);
          sim_options.channels = options.noise;
          sim_options.moving_decoherence_scale =
              opts.fidelity.moving_decoherence_scale;
          sim_options.n_threads = 1;
          cell.success_probability =
              sim::simulate(cell.result, machine.config, sim_options).mean();
        } else {
          cell.success_probability = noise::success_probability(
              cell.result, machine.config, options.noise);
        }
      }
      if (options.shots) {
        cell.shot_plans = shots::parallelization_sweep(
            cell.result, machine.config, *options.shots);
      }
      if (use_results) {
        cache::CachedCell stored;
        stored.result = cell.result;
        stored.has_success_probability = options.compute_success_probability;
        stored.success_probability = cell.success_probability;
        stored.has_shot_plans = options.shots.has_value();
        stored.shot_plans = cell.shot_plans;
        persistent->put_result(cell_key, stored);
      }
  };

  const auto run_cell = [&](std::size_t flat) {
    const std::size_t per_circuit = techniques.size() * machines.size();
    const std::size_t ci = flat / per_circuit;
    const std::size_t ti = (flat % per_circuit) / machines.size();
    const std::size_t mi = flat % machines.size();
    const CircuitSpec& spec = circuits[ci];
    const MachineSpec& machine = machines[mi];

    Cell& cell = sweep_result.cells[flat];
    cell.circuit = spec.name;
    cell.technique = techniques[ti];
    cell.machine = machine.name;
    cell.circuit_index = ci;
    cell.technique_index = ti;
    cell.machine_index = mi;

    if (options.cell_filter && !options.cell_filter(flat)) {
      cell.skipped = true;
      return;
    }
    if (options.cancel && options.cancel->load(std::memory_order_relaxed)) {
      cell.cancelled = true;
      return;
    }
    cell.origin = options.provenance;

    const Stopwatch cell_watch;
    try {
      compile_cell(cell, ci, spec, machine);
    } catch (const std::exception& error) {
      cell.error = error.what();
    }
    cell.compile_seconds = cell_watch.seconds();
    if (options.on_cell) options.on_cell(cell);
  };

  pool->parallel_for(sweep_result.cells.size(), run_cell);
  sweep_result.anneals = static_cast<std::size_t>(
      anneal_counter->load(std::memory_order_relaxed) - anneals_before);
  for (const Cell& cell : sweep_result.cells) {
    if (cell.cancelled) {
      sweep_result.cancelled = true;
      break;
    }
  }
  sweep_result.placement_disk_hits = placement_disk_hits.load();
  sweep_result.result_cache_hits = result_cache_hits.load();
  sweep_result.result_cache_misses = result_cache_misses.load();
  sweep_result.wall_seconds = stopwatch.seconds();
  return sweep_result;
}

}  // namespace parallax::sweep
