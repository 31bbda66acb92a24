// One-thread, pass-by-pass replay of the compilations a workload ran.
//
// The traced pass runs sweeps on worker threads, where a cell that blocks on
// a sibling's in-flight placement memo would count that wait as its own
// work. The replay re-runs every compilation on the calling thread with the
// sweep driver's sharing rules: one transpile per circuit, one anneal per
// placement key (windows looked up and stored in the disk tier), result
// cache lookups keyed exactly as sweep::run keys them. Every pass runs
// through the public pipeline::passes factories. A span wraps each pass,
// anneal, cache access, fidelity estimate and shot plan; the per-layer busy
// times are the spans' self times.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cache/cache.hpp"
#include "shard/spec.hpp"
#include "sweep/sweep.hpp"

namespace pbench {

/// One sweep the workload ran, with what it returned.
struct ReplayItem {
  const parallax::shard::SweepSpec* spec = nullptr;
  const parallax::sweep::Result* observed = nullptr;
  /// Plan the Fig. 11 parallel-shot series for each compiled cell (the
  /// fig11 renderer's shots-layer work).
  bool plan_shots = false;
};

struct ReplayTotals {
  std::uint64_t cells = 0;
  std::uint64_t compiled = 0;
  std::uint64_t gates_out = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t windows = 0;
  std::uint64_t sim_shots = 0;
};

/// Replays `items` in order. With a cache, every cell looks its result up
/// first and only misses compile (and are stored), as in sweep::run; with
/// none, each distinct compilation runs once. Each compiled cell's schedule
/// must match the observed cell's (a check), so the replay provably
/// measures the workload's own compilations.
ReplayTotals replay(const std::vector<ReplayItem>& items,
                    parallax::cache::CompilationCache* cache, Tracer& tracer,
                    Checks& checks);

}  // namespace pbench
