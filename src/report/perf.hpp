// The per-PR performance snapshot behind `parallax bench --perf-json`: a
// machine-readable JSON record of the micro workloads that only this suite
// measures. They are the anneal A/B (legacy vs delta-cost vs multi-chain vs
// race on the largest table04 circuit), streaming QASM parse,
// `parse_request_line` and simulator shots. End-to-end sweep, serve and farm
// numbers live in `benchmark/`. The committed BENCH_PR<N>.json files form the
// repo's perf trajectory; CI replays the suite and fails when the delta
// anneal's wall, relative to the legacy anneal's in the same process,
// regresses beyond tolerance against the committed baseline.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

namespace parallax::report {

struct PerfOptions {
  /// Master seed (placement seeds derive per circuit, as the sweep does).
  std::uint64_t seed = 0xA77AC5ULL;
  /// Worker threads for the simulator; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// When non-empty: a committed v2 snapshot to gate against. The run fails
  /// (exit 1) if the baseline has no gate_delta_over_legacy, or if the
  /// measured delta/legacy anneal wall ratio exceeds the baseline's by more
  /// than `tolerance`.
  std::string baseline_path;
  /// Allowed relative regression of the gate ratio (0.25 = +25%).
  double tolerance = 0.25;
};

/// Runs the perf suite, writes the JSON snapshot to `path`, and prints a
/// human summary to `log`. Returns a process exit code: 0 on success,
/// 1 on an unusable baseline, write failure or baseline regression.
int run_perf_snapshot(const std::string& path, const PerfOptions& options,
                      std::FILE* log);

/// Minimal baseline reader: finds the first `"key"` in `text` and parses
/// the number after its colon. util/json stays write-only by design; the
/// snapshot schema keeps gated metrics at unique top-level keys so a key
/// scan is unambiguous.
[[nodiscard]] std::optional<double> scan_json_number(const std::string& text,
                                                     const std::string& key);

}  // namespace parallax::report
