// parallax_benchmark: runs one workload for a time budget and prints its
// metrics, ending with one JSON result line.
//
//   parallax_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                      --root CHECKOUT [--build-dir DIR]
//
// --trace 0 measures the end-to-end metrics: set-up repeated (at least
// kMinSetups times, until kSetupBudgetS has been spent), then timed passes
// until S seconds of pass wall time, each pass followed (outside its wall
// clock) by the output checks. --trace 1 runs one untraced and one traced
// pass, replays the traced pass's compilations on one thread pass by pass,
// prints the per-layer metrics, and writes the spans as Chrome trace-event
// JSON under DIR/traces. Scratch files live in a fresh directory under
// DIR/tmp that is removed on exit.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anneal/kernels.hpp"
#include "bench.hpp"
#include "report/orchestrator.hpp"

namespace pbench {
namespace {

/// Set-up runs at least kMinSetups times and repeats, up to kMaxSetups,
/// until kSetupBudgetS seconds are spent; setup_s is the median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
/// Upper bound on timed passes, so a very fast pass cannot run away.
constexpr int kMaxPasses = 400;

struct MetricInfo {
  const char* name;
  const char* unit;
};

constexpr MetricInfo kEndToEnd[] = {
    {"wall_s", "s"},          {"setup_s", "s"},
    {"peak_rss_mb", "MB"},    {"latency_p50_s", "s"},
    {"latency_p95_s", "s"},   {"success_geomean", "fraction"},
    {"exec_us_geomean", "us"},
};

constexpr MetricInfo kPerLayer[] = {
    {"qasm.parse_s", "s"},
    {"qasm.mb_per_s", "MB/s"},
    {"circuit.transpile_s", "s"},
    {"circuit.gates_out", "count"},
    {"placement.anneal_s", "s"},
    {"placement.anneals", "count"},
    {"placement.evals", "count"},
    {"placement.windows", "count"},
    {"placement.discretize_s", "s"},
    {"parallax.aod_selection_s", "s"},
    {"parallax.schedule_s", "s"},
    {"parallax.layers_out", "count"},
    {"parallax.trap_changes", "count"},
    {"baselines.eldi_placement_s", "s"},
    {"baselines.swap_route_s", "s"},
    {"baselines.static_schedule_s", "s"},
    {"noise.fidelity_s", "s"},
    {"sim.simulate_s", "s"},
    {"sim.shots", "count"},
    {"shots.plan_s", "s"},
    {"cache.get_s", "s"},
    {"cache.put_s", "s"},
    {"cache.result_hits", "count"},
    {"cache.result_misses", "count"},
    {"cache.hit_ratio", "fraction"},
    {"cache.placement_disk_hits", "count"},
    {"cache.bytes_read", "bytes"},
    {"cache.bytes_written", "bytes"},
    {"cache.corrupt", "count"},
    {"sweep.run_s", "s"},
    {"sweep.cells", "count"},
    {"sweep.cell_compile_s", "s"},
    {"sweep.idle_frac", "fraction"},
    {"report.render_s", "s"},
    {"serve.first_cell_p50_s", "s"},
    {"serve.frame_bytes", "bytes"},
    {"serve.requests", "count"},
    {"serve.anneals", "count"},
    {"serve.dup_anneal_ratio", "ratio"},
    {"ledger.e3_layers", "count"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "fraction"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  fs::path root;
  fs::path build_dir;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "parallax_benchmark: %s\n"
               "usage: parallax_benchmark --workload NAME --seed N "
               "--seconds S --trace 0|1 --root CHECKOUT [--build-dir DIR]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace expects 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--root") {
        args.root = fs::absolute(value);
      } else if (flag == "--build-dir") {
        args.build_dir = fs::absolute(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const auto& name : workload_names()) known |= name == args.workload;
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (args.root.empty()) usage("--root is required");
  if (args.build_dir.empty()) args.build_dir = args.root / ".bench_build";
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Removes the run's scratch directory on every exit path.
class ScratchDir {
 public:
  ScratchDir(fs::path home, fs::path path)
      : home_(std::move(home)), path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
    fs::current_path(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::current_path(home_, ignored);
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  fs::path home_;
  fs::path path_;
};

void print_result(const Checks& checks, const Metrics& metrics,
                  const MetricInfo* table, std::size_t n) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", table[i].name,
                metrics.at(table[i].name), table[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  // Hermetic: host settings that would redirect caches, executors or
  // sharding must not reach the library.
  for (const char* knob : {"PARALLAX_CACHE_DIR", "PARALLAX_CACHE",
                           "PARALLAX_SERVE", "PARALLAX_SHARDS"}) {
    unsetenv(knob);
  }
  const fs::path scratch_path =
      args.build_dir / "tmp" /
      (args.workload + "-" + std::to_string(getpid()));
  const fs::path trace_path = args.build_dir / "traces" /
                              (args.workload + "-seed" +
                               std::to_string(args.seed) + ".json");

  Tracer tracer(args.trace);
  Context context{args.root, scratch_path, args.seed, &tracer};
  Checks checks;
  Metrics metrics;
  {
    const ScratchDir scratch(args.root, scratch_path);
    const auto workload = make_workload(args.workload, context);
    if (!args.trace) {
      std::vector<double> setups;
      double spent = 0.0;
      while (setups.size() < kMinSetups ||
             (spent < kSetupBudgetS && setups.size() < kMaxSetups)) {
        const double t0 = tracer.now();
        workload->setup(static_cast<int>(setups.size()));
        setups.push_back(tracer.now() - t0);
        spent += setups.back();
      }
      reset_peak_rss();
      std::vector<double> walls, latencies;
      double measured = 0.0;
      while (measured < args.seconds &&
             static_cast<int>(walls.size()) < kMaxPasses) {
        const Pass pass = workload->run_pass(checks, false);
        measured += pass.wall_s;
        walls.push_back(pass.wall_s);
        latencies.insert(latencies.end(), pass.latencies.begin(),
                         pass.latencies.end());
      }
      metrics["peak_rss_mb"] = peak_rss_mb();
      workload->finish(checks, metrics);
      metrics["wall_s"] = median(walls);
      metrics["setup_s"] = median(setups);
      metrics["latency_p50_s"] = quantile(latencies, 0.5);
      metrics["latency_p95_s"] = quantile(latencies, 0.95);
      std::printf("samples: %zu passes (%.3f s measured), %zu operations, "
                  "%zu set-ups\n",
                  walls.size(), measured, latencies.size(), setups.size());
    } else {
      workload->setup(0);
      const Pass untraced = workload->run_pass(checks, false);
      const Pass traced = workload->run_pass(checks, true);
      workload->finish(checks, metrics);
      workload->layers(checks, metrics);
      metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s;
      metrics["trace.coverage"] =
          tracer.coverage(traced.trace_t0, traced.trace_t1);
      for (const auto& name : parallax::report::Registry::global().names()) {
        metrics.try_emplace("report.artifact_s." + name, 0.0);
      }
      for (const auto& info : kPerLayer) metrics.try_emplace(info.name, 0.0);
    }
  }

  const char* lane = parallax::anneal::kernels::lane_name(
      parallax::anneal::kernels::active_lane());
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("env: workload=%s seed=%llu nproc=%u compiler=\"%s\" lane=%s "
              "threads=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), nproc,
              PBENCH_COMPILER, lane, kThreads);
  std::printf("error_rate = %.6g (%llu failed / %llu attempted)\n",
              checks.attempted() > 0
                  ? static_cast<double>(checks.failed()) /
                        static_cast<double>(checks.attempted())
                  : 0.0,
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));
  for (const auto& message : checks.messages()) {
    std::fprintf(stderr, "check failed: %s\n", message.c_str());
  }

  if (args.trace) {
    fs::create_directories(trace_path.parent_path());
    tracer.write_chrome(
        trace_path.string(),
        {{"workload", args.workload},
         {"seed", std::to_string(args.seed)},
         {"nproc", std::to_string(nproc)},
         {"compiler", PBENCH_COMPILER},
         {"lane", lane}});
    std::printf("trace: %s\n", trace_path.string().c_str());
    // Per-layer metrics, with the per-artifact report spans after the table.
    std::vector<MetricInfo> table(std::begin(kPerLayer), std::end(kPerLayer));
    std::vector<std::string> artifact_names;
    for (const auto& name : parallax::report::Registry::global().names()) {
      artifact_names.push_back("report.artifact_s." + name);
    }
    for (const auto& name : artifact_names) table.push_back({name.c_str(), "s"});
    for (const auto& info : table) {
      std::printf("%-34s %.6g %s\n", info.name, metrics.at(info.name),
                  info.unit);
    }
    print_result(checks, metrics, table.data(), table.size());
  } else {
    for (const auto& info : kEndToEnd) {
      std::printf("%-34s %.6g %s\n", info.name, metrics.at(info.name),
                  info.unit);
    }
    if (const auto known = metrics.find("ledger.e3_layers");
        known != metrics.end()) {
      std::printf("%-34s %.6g count (known defect, reported, not failed)\n",
                  known->first.c_str(), known->second);
    }
    print_result(checks, metrics, kEndToEnd, std::size(kEndToEnd));
  }
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "parallax_benchmark: refusing to measure a build with "
               "assertions enabled; configure with CMAKE_BUILD_TYPE=Release\n");
  return 2;
#else
  const pbench::Args args = pbench::parse_args(argc, argv);
  try {
    return pbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "parallax_benchmark: %s: %s\n",
                 args.workload.c_str(), error.what());
    return 1;
  }
#endif
}
