// parallax_cli — command-line front end for the compiler library.
//
// Usage:
//   parallax_cli --benchmark QAOA [options]
//   parallax_cli --circuit file.qasm [options]
//   parallax_cli --list-techniques
//   parallax_cli bench [--all|NAME...] [options]
//   parallax_cli cache stats|clear|prewarm [options]
//   parallax_cli shard plan|run|merge [options]
//   parallax_cli serve [start|spec|submit|stats|stop] [options]
//   parallax_cli sim (--benchmark NAME | --circuit FILE.qasm) [options]
//   parallax_cli import FILE.qasm... [--manifest OUT]
//
// Options:
//   --machine quera256|atom1225   target machine preset (default quera256)
//   --technique NAME|all          any registered technique (default parallax)
//   --aod-count N                 AOD rows/columns (default 20)
//   --no-home-return              disable the home-return step (Fig. 12)
//   --spread F                    discretization spread factor (default 2.0)
//   --seed N                      master seed (default 42)
//   --threads N                   sweep worker threads (default: hardware)
//   --json                        emit a JSON report instead of text
//   --layers                      include the per-layer schedule in JSON
//   --render                      print the ASCII topology
//   --export-qasm FILE            write the compiled circuit as QASM 2.0
//   --cache-dir DIR               persistent-cache root (default:
//                                 $PARALLAX_CACHE_DIR or .parallax-cache)
//   --no-cache                    disable the persistent compilation cache
//   --max-disk-bytes N            cache disk-tier budget; over-budget
//                                 entries are evicted LRU-by-index-order
//                                 (default 0 = unbounded)
//
// Bench subcommand (the artifact registry: every paper table/figure as a
// declarative entry in src/report, orchestrated against one warm session —
// see report/orchestrator.hpp; regenerating the whole paper twice against
// one session replays the second pass entirely from result hits):
//   bench --list                      artifact names and titles
//   bench [--all | NAME...]
//         [--serve auto|off|SOCKET]   auto (default): one in-process warm
//                                     serve session; off: plain in-process
//                                     sweeps; SOCKET: a running
//                                     `parallax serve --socket` session
//         [--format table|csv|json]   rendered artifact documents (stdout;
//                                     accounting epilogue on stderr)
//         [--benchmarks A,B,...]      restrict suite artifacts to a subset
//         [--seed N] [--threads N] [--full-scale]
//         [--cache-dir DIR] [--no-cache] [--max-disk-bytes N]
//         [--shards N]                (--serve off only) run every sweep as
//                                     an n-shard partition-and-merge
//   bench --perf-json FILE            run the perf suite (anneal A/B, QASM
//         [--perf-baseline FILE]      parse, request-line parse, simulator)
//         [--seed N] [--threads N]    and write a machine-readable snapshot;
//                                     with a baseline, exit 1 when the delta
//                                     anneal's wall over the legacy anneal's
//                                     regresses >25% (the committed
//                                     BENCH_PR<N>.json perf trajectory)
//
// Cache subcommands (the paper's "load earlier results" option, automatic):
//   cache stats    [--cache-dir DIR]           entry counts and sizes
//   cache clear    [--cache-dir DIR]           delete every entry
//   cache prewarm  [--cache-dir DIR] [--machine M] [--technique NAME|all]
//                  [--benchmarks A,B,...] [--seed N] [--threads N]
//                  compile the Table III suite into the cache so later runs
//                  skip annealing entirely
//
// Shard subcommands (deterministic multi-process/multi-host sweeps; see
// src/shard/shard.hpp — merge output is byte-identical to an unsharded run):
//   shard plan   --shards N --out-dir DIR [--benchmarks A,B,...]
//                [--machine M] [--technique NAME|all] [--seed N]
//                [--spread F] [--no-home-return] [--shots]
//                write DIR/shard-K.spec for K in [0, N)
//   shard run    --spec FILE --out FILE [--cache-dir DIR] [--no-cache]
//                [--threads N] [--origin LABEL] [--max-disk-bytes N]
//                execute one shard; point every host's --cache-dir at one
//                shared directory and no placement is annealed twice
//   shard merge  --out FILE RUN_FILE...
//                recombine shard outputs; writes the canonical result bytes
//                (diffable across campaigns) and rejects duplicate,
//                missing, or conflicting cells
//
// Serve subcommands (the long-lived sweep service; see src/serve/ — the
// CompilationCache is the session state, so repeated/overlapping requests
// replay from result hits with zero anneals):
//   serve [start] [--socket PATH] [--cache-dir DIR] [--no-cache]
//                 [--threads N] [--max-disk-bytes N] [--max-inflight N]
//                 [--max-client-bytes N]
//                 serve line-framed requests (SUBMIT/CANCEL/STATS/STOP/QUIT)
//                 from stdin, streaming length-prefixed cell frames to
//                 stdout; --socket runs the multi-tenant poll() farm on an
//                 AF_UNIX socket instead (what PARALLAX_SERVE points the
//                 bench harness at), multiplexing concurrent clients with
//                 per-client quotas. SIGINT/SIGTERM drain gracefully.
//   serve spec    --out FILE [--benchmarks A,B,...] [--machine M]
//                 [--technique NAME|all] [--seed N] [--spread F]
//                 [--no-home-return] [--shots] [--aod-count N]
//                 write a framed sweep-spec request payload
//   serve submit  --socket PATH --spec FILE [--out FILE]
//                 submit a spec to a running service, wait for the
//                 streamed cells, and write the canonical result bytes
//   serve stats   --socket PATH
//                 print the running session's totals plus one accounting
//                 row per client (requests, cells, anneals, bytes queued)
//   serve stop    --socket PATH
//                 gracefully drain a running session (STOP): it stops
//                 accepting, cancels in-flight work, flushes every done
//                 frame, and unlinks its socket
//
// Import subcommand (the external-corpus front door, src/import): stream
// each QASM file once — parse-validating, counting, and content-hashing in
// one pass with O(1) memory in the gate count — and emit a tab-separated
// manifest (stdout, or --manifest FILE). The manifest is then a circuit
// axis anywhere benchmarks are: compile mode, shard plan, and serve spec
// all take --import MANIFEST, re-verifying every file's digest at load so a
// sweep never silently runs on drifted inputs. --window N (compile modes)
// caps the placement anneal at N qubits per window (placement/windowed.hpp)
// so million-gate imports stay tractable:
//   import FILE.qasm... [--manifest OUT]
//   --circuit/--benchmark ... --import MANIFEST --window N
//
// Sim subcommand (the discrete-event schedule simulator, src/sim): compiles
// the circuit with recorded positions, replays it shot-by-shot with
// per-event error channels, and prints the closed-form model probability
// next to the Monte Carlo estimate. Stdout is deterministic for a given
// seed and shot count — identical across --threads values — so it can be
// golden-locked; measured shots/sec ride on stderr:
//   sim (--benchmark NAME | --circuit FILE.qasm)
//       [--technique NAME|all] [--machine M] [--shots N] [--seed N]
//       [--threads N] [--json] [--aod-count N] [--no-home-return]
//       [--spread F] [--cache-dir DIR] [--no-cache] [--max-disk-bytes N]
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "hardware/config.hpp"
#include "hardware/render.hpp"
#include "import/manifest.hpp"
#include "noise/model.hpp"
#include "parallax/report.hpp"
#include "parallax/validate.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "report/orchestrator.hpp"
#include "report/perf.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

struct CliOptions {
  std::string benchmark;
  std::string circuit_file;
  std::string machine = "quera256";
  std::string technique = "parallax";
  std::int32_t aod_count = 20;
  bool home_return = true;
  double spread = 2.0;
  std::uint64_t seed = 42;
  std::size_t threads = 0;
  bool json = false;
  bool layers = false;
  bool render = false;
  bool list_techniques = false;
  std::string export_qasm;
  bool use_cache = true;
  std::string cache_dir;  // empty => cache::default_directory()
  std::uint64_t max_disk_bytes = 0;
  // cache subcommand state
  std::string cache_command;  // "stats" | "clear" | "prewarm"
  std::string benchmarks_csv;
  // shard subcommand state
  std::string shard_command;  // "plan" | "run" | "merge"
  std::uint32_t shards = 0;
  std::string out_dir;
  std::string spec_file;
  std::string out_file;
  std::string origin;
  bool shots = false;
  std::vector<std::string> inputs;  // shard merge positional run files
  // serve subcommand state
  std::string serve_command;  // "start" | "spec" | "submit" | "stats" | "stop"
  std::string socket_path;
  std::uint64_t max_inflight = 0;      // 0 => ServerOptions default
  std::uint64_t max_client_bytes = 0;  // 0 => ServerOptions default
  // sim subcommand state
  bool sim_command = false;
  std::int64_t sim_shots = 4096;
  // import subcommand / imported-circuit state
  bool import_command = false;
  std::string manifest_out;       // import --manifest OUT (empty => stdout)
  std::string import_manifest;    // --import MANIFEST circuit axis
  std::int32_t window = 0;        // --window N placement cap (0 = off)
  // bench subcommand state
  bool bench_command = false;
  std::string serve_mode = "auto";  // "auto" | "off" | a socket path
  std::string format = "table";
  bool all_artifacts = false;
  bool list_artifacts = false;
  bool full_scale = false;
  std::string perf_json;      // bench --perf-json output path
  std::string perf_baseline;  // committed snapshot to gate against
};

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s (--benchmark NAME | --circuit FILE.qasm | "
               "--import MANIFEST)\n"
               "          [--machine quera256|atom1225] "
               "[--technique NAME|all]\n"
               "          [--aod-count N] [--no-home-return] [--window N]\n"
               "          [--spread F] [--seed N] [--threads N] "
               "[--json [--layers]] [--render]\n"
               "          [--export-qasm FILE] [--cache-dir DIR] "
               "[--no-cache]\n"
               "       %s import FILE.qasm... [--manifest OUT]\n"
               "       %s --list-techniques\n"
               "       %s cache (stats|clear|prewarm) [--cache-dir DIR]\n"
               "               (prewarm also takes --machine --technique "
               "--benchmarks A,B,... --seed --threads)\n"
               "       %s shard plan --shards N --out-dir DIR "
               "[--benchmarks A,B,...]\n"
               "               [--machine M] [--technique NAME|all] "
               "[--seed N] [--spread F]\n"
               "               [--no-home-return] [--shots]\n"
               "       %s shard run --spec FILE --out FILE "
               "[--cache-dir DIR] [--no-cache]\n"
               "               [--threads N] [--origin LABEL] "
               "[--max-disk-bytes N]\n"
               "       %s shard merge --out FILE RUN_FILE...\n"
               "       %s serve [start] [--socket PATH] [--cache-dir DIR] "
               "[--no-cache]\n"
               "               [--threads N] [--max-disk-bytes N] "
               "[--max-inflight N]\n"
               "               [--max-client-bytes N]\n"
               "       %s serve spec --out FILE [--benchmarks A,B,...] "
               "[--machine M]\n"
               "               [--technique NAME|all] [--seed N] [--spread F]"
               " [--shots]\n"
               "       %s serve submit --socket PATH --spec FILE "
               "[--out FILE]\n"
               "       %s serve stats --socket PATH\n"
               "       %s serve stop --socket PATH\n"
               "       %s bench (--list | --all | NAME...) "
               "[--serve auto|off|SOCKET]\n"
               "               [--format table|csv|json] "
               "[--benchmarks A,B,...] [--seed N]\n"
               "               [--threads N] [--full-scale] "
               "[--cache-dir DIR] [--no-cache]\n"
               "               [--max-disk-bytes N] [--shards N]\n"
               "       %s bench --perf-json FILE [--perf-baseline FILE] "
               "[--seed N] [--threads N]\n"
               "               (the baseline is a v2 snapshot such as "
               "BENCH_PR18.json)\n"
               "       %s sim (--benchmark NAME | --circuit FILE.qasm) "
               "[--technique NAME|all]\n"
               "               [--machine M] [--shots N] [--seed N] "
               "[--threads N] [--json]\n"
               "               [--aod-count N] [--no-home-return] "
               "[--spread F]\n"
               "               [--cache-dir DIR] [--no-cache] "
               "[--max-disk-bytes N]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  std::exit(error != nullptr ? 2 : 0);
}

// Strict flag-value parsing (util/parse.hpp): `--aod-count banana` must be
// a reported error naming the flag, never std::atoi's silent 0.
std::uint64_t u64_flag(const char* argv0, const char* flag,
                       const char* value) {
  const auto parsed = parallax::util::parse_u64(value);
  if (!parsed) {
    usage(argv0, (std::string(flag) + " expects a non-negative integer, "
                                      "got '" +
                  value + "'")
                     .c_str());
  }
  return *parsed;
}

std::int32_t positive_i32_flag(const char* argv0, const char* flag,
                               const char* value) {
  const auto parsed = parallax::util::parse_i32(value);
  if (!parsed || *parsed <= 0) {
    usage(argv0, (std::string(flag) + " expects a positive integer, got '" +
                  value + "'")
                     .c_str());
  }
  return *parsed;
}

double positive_f64_flag(const char* argv0, const char* flag,
                         const char* value) {
  const auto parsed = parallax::util::parse_f64(value);
  if (!parsed || !(*parsed > 0.0)) {
    usage(argv0, (std::string(flag) + " expects a positive number, got '" +
                  value + "'")
                     .c_str());
  }
  return *parsed;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  int first = 1;
  if (argc > 1 && !std::strcmp(argv[1], "cache")) {
    if (argc < 3) usage(argv[0], "cache needs a subcommand");
    options.cache_command = argv[2];
    if (options.cache_command != "stats" && options.cache_command != "clear" &&
        options.cache_command != "prewarm") {
      usage(argv[0], "unknown cache subcommand (use stats, clear, prewarm)");
    }
    options.technique = "all";  // prewarm default: every technique
    first = 3;
  } else if (argc > 1 && !std::strcmp(argv[1], "shard")) {
    if (argc < 3) usage(argv[0], "shard needs a subcommand");
    options.shard_command = argv[2];
    if (options.shard_command != "plan" && options.shard_command != "run" &&
        options.shard_command != "merge") {
      usage(argv[0], "unknown shard subcommand (use plan, run, merge)");
    }
    options.technique = "all";  // plan default: every technique
    first = 3;
  } else if (argc > 1 && !std::strcmp(argv[1], "bench")) {
    options.bench_command = true;
    first = 2;
  } else if (argc > 1 && !std::strcmp(argv[1], "serve")) {
    // Bare `serve` (or `serve --socket ...`) starts the service; a word
    // after it selects the spec/submit helpers.
    if (argc > 2 && argv[2][0] != '-') {
      options.serve_command = argv[2];
      first = 3;
    } else {
      options.serve_command = "start";
      first = 2;
    }
    if (options.serve_command != "start" && options.serve_command != "spec" &&
        options.serve_command != "submit" &&
        options.serve_command != "stats" && options.serve_command != "stop") {
      usage(argv[0],
            "unknown serve subcommand (use start, spec, submit, stats, stop)");
    }
    options.technique = "all";  // spec default: every technique
  } else if (argc > 1 && !std::strcmp(argv[1], "sim")) {
    options.sim_command = true;
    first = 2;
  } else if (argc > 1 && !std::strcmp(argv[1], "import")) {
    options.import_command = true;
    first = 2;
  }
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0], "missing value for option");
    return argv[++i];
  };
  // Every option flag seen, so subcommands can reject flags they would
  // silently ignore (values are consumed by need_value and never land
  // here).
  std::vector<std::string> seen_flags;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] == '-') seen_flags.push_back(arg);
    if (!std::strcmp(arg, "--benchmark")) {
      options.benchmark = need_value(i);
    } else if (!std::strcmp(arg, "--circuit")) {
      options.circuit_file = need_value(i);
    } else if (!std::strcmp(arg, "--machine")) {
      options.machine = need_value(i);
    } else if (!std::strcmp(arg, "--technique")) {
      options.technique = need_value(i);
    } else if (!std::strcmp(arg, "--aod-count")) {
      options.aod_count =
          positive_i32_flag(argv[0], "--aod-count", need_value(i));
    } else if (!std::strcmp(arg, "--no-home-return")) {
      options.home_return = false;
    } else if (!std::strcmp(arg, "--spread")) {
      options.spread = positive_f64_flag(argv[0], "--spread", need_value(i));
    } else if (!std::strcmp(arg, "--seed")) {
      options.seed = u64_flag(argv[0], "--seed", need_value(i));
    } else if (!std::strcmp(arg, "--threads")) {
      options.threads = u64_flag(argv[0], "--threads", need_value(i));
    } else if (!std::strcmp(arg, "--json")) {
      options.json = true;
    } else if (!std::strcmp(arg, "--layers")) {
      options.layers = true;
    } else if (!std::strcmp(arg, "--render")) {
      options.render = true;
    } else if (!std::strcmp(arg, "--list-techniques")) {
      options.list_techniques = true;
    } else if (!std::strcmp(arg, "--export-qasm")) {
      options.export_qasm = need_value(i);
    } else if (!std::strcmp(arg, "--cache-dir")) {
      options.cache_dir = need_value(i);
    } else if (!std::strcmp(arg, "--no-cache")) {
      options.use_cache = false;
    } else if (!std::strcmp(arg, "--benchmarks")) {
      options.benchmarks_csv = need_value(i);
    } else if (!std::strcmp(arg, "--max-disk-bytes")) {
      options.max_disk_bytes =
          u64_flag(argv[0], "--max-disk-bytes", need_value(i));
    } else if (!std::strcmp(arg, "--shards")) {
      const std::uint64_t n = u64_flag(argv[0], "--shards", need_value(i));
      if (n == 0 || n > (1u << 20)) {
        usage(argv[0], "--shards must be in [1, 1048576]");
      }
      options.shards = static_cast<std::uint32_t>(n);
    } else if (!std::strcmp(arg, "--socket")) {
      options.socket_path = need_value(i);
    } else if (!std::strcmp(arg, "--max-inflight")) {
      options.max_inflight =
          u64_flag(argv[0], "--max-inflight", need_value(i));
    } else if (!std::strcmp(arg, "--max-client-bytes")) {
      options.max_client_bytes =
          u64_flag(argv[0], "--max-client-bytes", need_value(i));
    } else if (!std::strcmp(arg, "--out-dir")) {
      options.out_dir = need_value(i);
    } else if (!std::strcmp(arg, "--spec")) {
      options.spec_file = need_value(i);
    } else if (!std::strcmp(arg, "--out")) {
      options.out_file = need_value(i);
    } else if (!std::strcmp(arg, "--origin")) {
      options.origin = need_value(i);
    } else if (!std::strcmp(arg, "--shots")) {
      // For `sim` this is the Monte Carlo shot count; for shard plan /
      // serve spec it is the parallel-shots toggle.
      if (options.sim_command) {
        options.sim_shots = static_cast<std::int64_t>(
            u64_flag(argv[0], "--shots", need_value(i)));
        if (options.sim_shots <= 0) {
          usage(argv[0], "--shots expects a positive shot count");
        }
      } else {
        options.shots = true;
      }
    } else if (!std::strcmp(arg, "--serve")) {
      options.serve_mode = need_value(i);
    } else if (!std::strcmp(arg, "--format")) {
      options.format = need_value(i);
    } else if (!std::strcmp(arg, "--all")) {
      options.all_artifacts = true;
    } else if (!std::strcmp(arg, "--list")) {
      options.list_artifacts = true;
    } else if (!std::strcmp(arg, "--full-scale")) {
      options.full_scale = true;
    } else if (!std::strcmp(arg, "--perf-json")) {
      options.perf_json = need_value(i);
    } else if (!std::strcmp(arg, "--perf-baseline")) {
      options.perf_baseline = need_value(i);
    } else if (!std::strcmp(arg, "--manifest")) {
      options.manifest_out = need_value(i);
    } else if (!std::strcmp(arg, "--import")) {
      options.import_manifest = need_value(i);
    } else if (!std::strcmp(arg, "--window")) {
      options.window = positive_i32_flag(argv[0], "--window", need_value(i));
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(argv[0]);
    } else if (arg[0] != '-' &&
               (options.shard_command == "merge" || options.bench_command ||
                options.import_command)) {
      options.inputs.push_back(arg);
    } else {
      usage(argv[0], (std::string("unknown option ") + arg).c_str());
    }
  }
  // A flag a subcommand would silently ignore is a user error (e.g.
  // `cache prewarm --benchmark WST` compiling the whole suite instead of
  // surfacing the typo, `shard run --shards 3` not re-sharding a spec, or
  // `cache stats --max-disk-bytes N` destructively evicting during a
  // read-only query), so every subcommand rejects flags outside its
  // allowlist.
  const auto allow_only = [&](const std::string& command,
                              std::initializer_list<std::string_view> allowed) {
    for (const auto& flag : seen_flags) {
      bool known = false;
      for (const std::string_view candidate : allowed) {
        if (flag == candidate) {
          known = true;
          break;
        }
      }
      if (!known) {
        usage(argv[0], (command + " does not take " + flag).c_str());
      }
    }
  };
  if (options.bench_command) {
    allow_only("bench",
               {"--all", "--list", "--serve", "--format", "--benchmarks",
                "--seed", "--threads", "--full-scale", "--cache-dir",
                "--no-cache", "--max-disk-bytes", "--shards", "--perf-json",
                "--perf-baseline"});
    const int modes = (options.list_artifacts ? 1 : 0) +
                      (options.all_artifacts ? 1 : 0) +
                      (options.inputs.empty() ? 0 : 1) +
                      (options.perf_json.empty() ? 0 : 1);
    if (modes != 1) {
      usage(argv[0],
            "bench needs exactly one of --list, --all, --perf-json, or "
            "artifact names (see bench --list)");
    }
    if (!options.perf_json.empty()) {
      // The perf suite runs fixed in-process micro workloads and opens no
      // cache; silently ignoring session/artifact flags would suggest they
      // shaped the numbers.
      for (const char* unsupported :
           {"--serve", "--format", "--benchmarks", "--full-scale",
            "--cache-dir", "--no-cache", "--max-disk-bytes", "--shards"}) {
        if (std::find(seen_flags.begin(), seen_flags.end(), unsupported) !=
            seen_flags.end()) {
          usage(argv[0], (std::string(unsupported) +
                          " does not apply to bench --perf-json (the perf "
                          "suite runs fixed in-process micro workloads and "
                          "opens no cache)")
                             .c_str());
        }
      }
    } else if (!options.perf_baseline.empty()) {
      usage(argv[0], "--perf-baseline requires --perf-json");
    }
    if (options.shards != 0 && options.serve_mode != "off") {
      usage(argv[0],
            "--shards only applies to --serve off (a serve session executes "
            "whole specs; sharding is the in-process campaign shape)");
    }
    if (options.serve_mode != "off" && options.serve_mode != "auto") {
      // A socket session's threads and cache live in the server process;
      // silently ignoring these would e.g. report warm-cache numbers to a
      // user who asked for --no-cache.
      for (const char* local_only :
           {"--threads", "--cache-dir", "--no-cache", "--max-disk-bytes"}) {
        if (std::find(seen_flags.begin(), seen_flags.end(), local_only) !=
            seen_flags.end()) {
          usage(argv[0],
                (std::string(local_only) +
                 " configures this process, not the serve session --serve "
                 "names (set it on `parallax serve` instead)")
                    .c_str());
        }
      }
    }
    if (!options.use_cache &&
        (!options.cache_dir.empty() || options.max_disk_bytes != 0)) {
      usage(argv[0],
            "--no-cache contradicts --cache-dir/--max-disk-bytes (the warm "
            "session story needs the cache)");
    }
  } else if (!options.cache_command.empty()) {
    if (options.cache_command == "prewarm") {
      allow_only("cache prewarm",
                 {"--cache-dir", "--max-disk-bytes", "--machine",
                  "--technique", "--benchmarks", "--seed", "--threads",
                  "--spread", "--no-home-return", "--aod-count"});
    } else {
      allow_only("cache " + options.cache_command, {"--cache-dir"});
    }
  } else if (!options.shard_command.empty()) {
    if (options.shard_command == "plan") {
      allow_only("shard plan",
                 {"--shards", "--out-dir", "--benchmarks", "--import",
                  "--window", "--machine", "--technique", "--seed",
                  "--spread", "--no-home-return", "--shots", "--aod-count"});
      if (options.shards == 0) usage(argv[0], "shard plan needs --shards N");
      if (options.out_dir.empty()) {
        usage(argv[0], "shard plan needs --out-dir DIR");
      }
    } else if (options.shard_command == "run") {
      allow_only("shard run",
                 {"--spec", "--out", "--cache-dir", "--no-cache",
                  "--max-disk-bytes", "--threads", "--origin"});
      if (!options.use_cache &&
          (!options.cache_dir.empty() || options.max_disk_bytes != 0)) {
        usage(argv[0],
              "--no-cache contradicts --cache-dir/--max-disk-bytes (the "
              "campaign's no-duplicate-anneal guarantee needs the cache)");
      }
      if (options.spec_file.empty()) {
        usage(argv[0], "shard run needs --spec FILE");
      }
      if (options.out_file.empty()) usage(argv[0], "shard run needs --out FILE");
    } else {  // merge
      allow_only("shard merge", {"--out"});
      if (options.out_file.empty()) {
        usage(argv[0], "shard merge needs --out FILE");
      }
      if (options.inputs.empty()) {
        usage(argv[0], "shard merge needs at least one shard run file");
      }
    }
  } else if (!options.serve_command.empty()) {
    if (options.serve_command == "start") {
      allow_only("serve start",
                 {"--socket", "--cache-dir", "--no-cache", "--threads",
                  "--max-disk-bytes", "--max-inflight", "--max-client-bytes"});
      if (!options.use_cache &&
          (!options.cache_dir.empty() || options.max_disk_bytes != 0)) {
        usage(argv[0],
              "--no-cache contradicts --cache-dir/--max-disk-bytes (the "
              "service's warm-replay guarantee needs the cache)");
      }
    } else if (options.serve_command == "spec") {
      allow_only("serve spec",
                 {"--out", "--benchmarks", "--import", "--window",
                  "--machine", "--technique", "--seed", "--spread",
                  "--no-home-return", "--shots", "--aod-count"});
      if (options.out_file.empty()) {
        usage(argv[0], "serve spec needs --out FILE");
      }
    } else if (options.serve_command == "submit") {
      allow_only("serve submit", {"--socket", "--spec", "--out"});
      if (options.socket_path.empty()) {
        usage(argv[0], "serve submit needs --socket PATH");
      }
      if (options.spec_file.empty()) {
        usage(argv[0], "serve submit needs --spec FILE");
      }
    } else {  // stats | stop
      allow_only("serve " + options.serve_command, {"--socket"});
      if (options.socket_path.empty()) {
        usage(argv[0], ("serve " + options.serve_command +
                        " needs --socket PATH")
                           .c_str());
      }
    }
  } else if (options.sim_command) {
    allow_only("sim",
               {"--benchmark", "--circuit", "--machine", "--technique",
                "--aod-count", "--no-home-return", "--spread", "--seed",
                "--shots", "--threads", "--json", "--cache-dir", "--no-cache",
                "--max-disk-bytes", "--help", "-h"});
    if (options.benchmark.empty() == options.circuit_file.empty()) {
      usage(argv[0], "sim needs exactly one of --benchmark / --circuit");
    }
  } else if (options.import_command) {
    allow_only("import", {"--manifest", "--help", "-h"});
    if (options.inputs.empty()) {
      usage(argv[0], "import needs at least one FILE.qasm");
    }
  } else {
    // Compile mode: reject the subcommand-only flags it would ignore.
    allow_only("compile mode",
               {"--benchmark", "--circuit", "--import", "--window",
                "--machine", "--technique", "--aod-count", "--no-home-return",
                "--spread", "--seed", "--threads", "--json", "--layers",
                "--render", "--list-techniques", "--export-qasm",
                "--cache-dir", "--no-cache", "--max-disk-bytes", "--help",
                "-h"});
    const int sources = (options.benchmark.empty() ? 0 : 1) +
                        (options.circuit_file.empty() ? 0 : 1) +
                        (options.import_manifest.empty() ? 0 : 1);
    if (!options.list_techniques && sources != 1) {
      usage(argv[0],
            "exactly one of --benchmark / --circuit / --import is required");
    }
  }
  if (!options.import_manifest.empty() && !options.benchmarks_csv.empty()) {
    usage(argv[0],
          "--import and --benchmarks both name the circuit axis; pick one");
  }
  return options;
}

void print_text_summary(const parallax::sweep::Cell& cell) {
  std::printf("%-9s  CZ=%-6zu swaps=%-5zu effCZ=%-6zu layers=%-5zu "
              "runtime=%.1fus  moves=%zu tc=%zu  P(success)=%.3e%s\n",
              cell.technique.c_str(), cell.result.stats.cz_gates,
              cell.result.stats.swap_gates, cell.result.stats.effective_cz(),
              cell.result.stats.layers, cell.result.runtime_us,
              cell.result.stats.aod_moves, cell.result.stats.trap_changes,
              cell.success_probability, cell.from_cache ? "  [cached]" : "");
}

parallax::hardware::HardwareConfig machine_config(const CliOptions& cli,
                                                  const char* argv0) {
  parallax::hardware::HardwareConfig config;
  if (cli.machine == "quera256") {
    config = parallax::hardware::HardwareConfig::quera_aquila_256();
  } else if (cli.machine == "atom1225") {
    config = parallax::hardware::HardwareConfig::atom_computing_1225();
  } else {
    usage(argv0, "unknown machine (use quera256 or atom1225)");
  }
  config.aod_rows = config.aod_cols = cli.aod_count;
  return config;
}

std::shared_ptr<parallax::cache::CompilationCache> open_cache(
    const CliOptions& cli) {
  if (!cli.use_cache) return nullptr;
  parallax::cache::CacheOptions options;
  options.directory = cli.cache_dir;
  options.max_disk_bytes = cli.max_disk_bytes;
  return parallax::cache::CompilationCache::open(options);
}

std::vector<std::string> technique_list(
    const CliOptions& cli, const parallax::technique::Registry& registry) {
  if (cli.technique != "all") return {cli.technique};
  if (!cli.cache_command.empty() || !cli.shard_command.empty() ||
      !cli.serve_command.empty()) {
    return registry.names();
  }
  // Ascending-quality order for "all", so with --export-qasm the last write
  // (the file that survives) is Parallax's zero-SWAP circuit, as before.
  return {"static", "graphine", "eldi", "parallax"};
}

/// --benchmarks A,B,... when given, else the whole Table III suite.
std::vector<std::string> benchmark_acronyms(const CliOptions& cli) {
  std::vector<std::string> acronyms;
  if (!cli.benchmarks_csv.empty()) {
    std::string token;
    for (const char c : cli.benchmarks_csv + ",") {
      if (c == ',') {
        if (!token.empty()) acronyms.push_back(token);
        token.clear();
      } else {
        token.push_back(c);
      }
    }
  } else {
    for (const auto& info : parallax::bench_circuits::all_benchmarks()) {
      acronyms.push_back(info.acronym);
    }
  }
  return acronyms;
}

void report_cache_line(const parallax::sweep::Result& swept,
                       const parallax::cache::CompilationCache& cache) {
  std::fprintf(stderr,
               "cache: %zu result hits, %zu result misses, %zu placements "
               "from disk, anneals=%llu (%s)\n",
               swept.result_cache_hits, swept.result_cache_misses,
               swept.placement_disk_hits,
               static_cast<unsigned long long>(swept.anneals),
               cache.directory().c_str());
}

int run_cache_command(const CliOptions& cli, const char* argv0) {
  namespace pc = parallax::cache;
  const auto cache = open_cache(cli);  // use_cache is always true here
  if (cli.cache_command == "stats") {
    std::size_t placements = 0, results = 0;
    std::uint64_t placement_bytes = 0, result_bytes = 0;
    for (const auto& entry : cache->entries()) {
      if (entry.kind == pc::Kind::kPlacement) {
        ++placements;
        placement_bytes += entry.payload_bytes;
      } else {
        ++results;
        result_bytes += entry.payload_bytes;
      }
    }
    std::printf("cache directory: %s\n", cache->directory().c_str());
    std::printf("placements: %zu entries, %.1f KB\n", placements,
                static_cast<double>(placement_bytes) / 1024.0);
    std::printf("results:    %zu entries, %.1f KB\n", results,
                static_cast<double>(result_bytes) / 1024.0);
    std::printf("total:      %zu entries, %.1f KB\n", placements + results,
                static_cast<double>(placement_bytes + result_bytes) / 1024.0);
    return 0;
  }
  if (cli.cache_command == "clear") {
    const std::size_t removed = cache->clear();
    std::printf("removed %zu entries from %s\n", removed,
                cache->directory().c_str());
    return 0;
  }
  // prewarm: compile the benchmark suite into the cache.
  const auto& registry = parallax::technique::Registry::global();
  parallax::bench_circuits::GenOptions gen;
  gen.seed = cli.seed;
  const std::vector<std::string> acronyms = benchmark_acronyms(cli);
  parallax::sweep::Options options;
  options.compile.seed = cli.seed;
  options.compile.scheduler.return_home = cli.home_return;
  options.compile.discretize.spread_factor = cli.spread;
  options.n_threads = cli.threads;
  options.cache = cache;
  try {
    const auto swept = parallax::sweep::run(
        parallax::sweep::benchmark_circuits(acronyms, gen),
        technique_list(cli, registry),
        {{cli.machine, machine_config(cli, argv0)}}, options, registry);
    std::size_t failed = 0;
    for (const auto& cell : swept.cells) failed += cell.ok() ? 0 : 1;
    std::printf(
        "prewarmed %zu cells (%zu already cached, %zu failed) in %.1fs "
        "into %s\n",
        swept.cells.size(), swept.result_cache_hits, failed,
        swept.wall_seconds, cache->directory().c_str());
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "prewarm failed: %s\n", error.what());
    return 1;
  }
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool read_file(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return false;
  bytes = std::move(buffer).str();
  return true;
}

/// The benchmark-suite sweep spec the matrix flags describe — shared by
/// `shard plan` and `serve spec`.
parallax::shard::SweepSpec build_sweep_spec(const CliOptions& cli,
                                            const char* argv0) {
  const auto& registry = parallax::technique::Registry::global();
  parallax::bench_circuits::GenOptions gen;
  gen.seed = cli.seed;
  parallax::shard::SweepSpec spec;
  if (!cli.import_manifest.empty()) {
    // Imported circuits replace the benchmark suite as the circuit axis;
    // load_circuits re-verifies every file's content digest against the
    // manifest before anything compiles.
    spec.circuits = parallax::importer::load_circuits(
        parallax::importer::load_manifest(cli.import_manifest));
  } else {
    spec.circuits =
        parallax::sweep::benchmark_circuits(benchmark_acronyms(cli), gen);
  }
  spec.techniques = technique_list(cli, registry);
  spec.machines = {{cli.machine, machine_config(cli, argv0)}};
  spec.options.compile.seed = cli.seed;
  spec.options.compile.scheduler.return_home = cli.home_return;
  spec.options.compile.discretize.spread_factor = cli.spread;
  spec.options.compile.placement.max_window_qubits = cli.window;
  if (cli.shots) spec.options.shots = parallax::shots::ShotOptions{};
  return spec;
}

int run_shard_plan(const CliOptions& cli, const char* argv0) {
  namespace sh = parallax::shard;
  const auto& registry = parallax::technique::Registry::global();
  const sh::SweepSpec spec = build_sweep_spec(cli, argv0);

  const auto shards = sh::plan(spec, cli.shards, registry);
  std::error_code ec;
  std::filesystem::create_directories(cli.out_dir, ec);
  const std::size_t total = spec.total_cells();
  std::printf("plan: %zu cells (%zu circuits x %zu techniques x %zu "
              "machines), spec %s\n",
              total, spec.circuits.size(), spec.techniques.size(),
              spec.machines.size(), sh::spec_digest(spec).hex().c_str());
  for (const auto& shard : shards) {
    const auto range =
        sh::shard_cell_range(total, shard.shard_count, shard.shard_index);
    const std::string path =
        (std::filesystem::path(cli.out_dir) /
         ("shard-" + std::to_string(shard.shard_index) + ".spec"))
            .string();
    if (!write_file(path, sh::serialize_shard_spec(shard))) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  %s  cells [%zu, %zu)\n", path.c_str(), range.begin,
                range.end);
  }
  return 0;
}

int run_shard_run(const CliOptions& cli) {
  namespace sh = parallax::shard;
  std::string bytes;
  if (!read_file(cli.spec_file, bytes)) {
    std::fprintf(stderr, "cannot read shard spec %s\n",
                 cli.spec_file.c_str());
    return 1;
  }
  const sh::ShardSpec spec = sh::parse_shard_spec(bytes);
  sh::RunnerOptions runner;
  runner.n_threads = cli.threads;
  runner.cache = open_cache(cli);
  runner.provenance = cli.origin;
  const sh::ShardRun executed = sh::run_shard(spec, runner);
  std::size_t failed = 0;
  for (const auto& cell : executed.cells) failed += cell.ok() ? 0 : 1;
  if (!write_file(cli.out_file, sh::serialize_shard_run(executed))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf("shard %u/%u: %zu cells (%zu failed) in %.1fs -> %s\n",
              executed.shard_index, executed.shard_count,
              executed.cells.size(), failed, executed.wall_seconds,
              cli.out_file.c_str());
  std::fprintf(stderr,
               "anneals=%llu result_hits=%llu result_misses=%llu "
               "placements_from_disk=%llu\n",
               static_cast<unsigned long long>(executed.anneals),
               static_cast<unsigned long long>(executed.result_cache_hits),
               static_cast<unsigned long long>(executed.result_cache_misses),
               static_cast<unsigned long long>(executed.placement_disk_hits));
  return failed == 0 ? 0 : 1;
}

int run_shard_merge(const CliOptions& cli) {
  namespace sh = parallax::shard;
  std::vector<sh::ShardRun> runs;
  runs.reserve(cli.inputs.size());
  for (const auto& path : cli.inputs) {
    std::string bytes;
    if (!read_file(path, bytes)) {
      std::fprintf(stderr, "cannot read shard run %s\n", path.c_str());
      return 1;
    }
    runs.push_back(sh::parse_shard_run(bytes));
  }
  const std::size_t n_runs = runs.size();
  const parallax::sweep::Result merged = sh::merge(std::move(runs));
  std::size_t failed = 0;
  std::size_t cached = 0;
  for (const auto& cell : merged.cells) {
    failed += cell.ok() ? 0 : 1;
    cached += cell.from_cache ? 1 : 0;
    if (!cell.ok()) {
      std::fprintf(stderr, "failed cell %s/%s/%s (%s): %s\n",
                   cell.circuit.c_str(), cell.technique.c_str(),
                   cell.machine.c_str(),
                   cell.origin.empty() ? "?" : cell.origin.c_str(),
                   cell.error.c_str());
    }
  }
  if (!write_file(cli.out_file, sh::canonical_bytes(merged))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf("merged %zu cells from %zu shards (%zu failed, %zu served "
              "from cache) -> %s\n",
              merged.cells.size(), n_runs, failed, cached,
              cli.out_file.c_str());
  return failed == 0 ? 0 : 1;
}

int run_shard_command(const CliOptions& cli, const char* argv0) {
  try {
    if (cli.shard_command == "plan") return run_shard_plan(cli, argv0);
    if (cli.shard_command == "run") return run_shard_run(cli);
    return run_shard_merge(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "shard %s failed: %s\n", cli.shard_command.c_str(),
                 error.what());
    return 1;
  }
}

/// SIGINT/SIGTERM land here; the serve loops poll it and drain gracefully
/// (cancel in-flight tickets, flush done frames, unlink the socket).
std::atomic<bool> g_serve_stop{false};

void install_serve_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = [](int) {
    g_serve_stop.store(true, std::memory_order_relaxed);
  };
  ::sigemptyset(&action.sa_mask);
  // No SA_RESTART: accept/read/poll must return EINTR so the stop flag is
  // observed promptly instead of after the next client activity.
  (void)::sigaction(SIGINT, &action, nullptr);
  (void)::sigaction(SIGTERM, &action, nullptr);
}

int run_serve_start(const CliOptions& cli) {
  namespace sv = parallax::serve;
  sv::ServiceOptions service_options;
  service_options.n_threads = cli.threads;
  service_options.cache = open_cache(cli);
  sv::SweepService service(service_options);
  sv::ServerOptions server_options;
  if (cli.max_inflight != 0) {
    server_options.max_inflight_per_client =
        static_cast<std::size_t>(cli.max_inflight);
  }
  if (cli.max_client_bytes != 0) {
    server_options.max_client_buffered_bytes =
        static_cast<std::size_t>(cli.max_client_bytes);
  }
  install_serve_signal_handlers();
  server_options.stop = &g_serve_stop;
  if (service_options.cache) {
    std::fprintf(stderr, "serve: session cache at %s\n",
                 service_options.cache->directory().c_str());
  }
  if (cli.socket_path.empty()) {
    std::fprintf(stderr,
                 "serve: reading requests from stdin (%zu worker threads)\n",
                 service.threads());
    const std::size_t served =
        sv::serve_connection(0, 1, service, server_options);
    std::fprintf(stderr, "serve: connection closed after %zu requests\n",
                 served);
    return 0;
  }
  std::fprintf(stderr, "serve: listening on %s (%zu worker threads)\n",
               cli.socket_path.c_str(), service.threads());
  if (!sv::serve_unix_socket(cli.socket_path, service, server_options)) {
    std::fprintf(stderr, "serve: cannot listen on %s: %s\n",
                 cli.socket_path.c_str(), std::strerror(errno));
    return 1;
  }
  std::fprintf(stderr, "serve: session drained, socket unlinked\n");
  return 0;
}

int run_serve_stop(const CliOptions& cli) {
  namespace sv = parallax::serve;
  sv::Client client(cli.socket_path);
  client.stop();
  std::fprintf(stderr, "serve: session at %s draining\n",
               cli.socket_path.c_str());
  return 0;
}

int run_serve_stats(const CliOptions& cli) {
  namespace sv = parallax::serve;
  sv::Client client(cli.socket_path);
  const sv::SessionStats stats = client.stats();
  parallax::report::print_server_stats(stderr, stats);
  return 0;
}

int run_serve_spec(const CliOptions& cli, const char* argv0) {
  namespace sh = parallax::shard;
  const sh::SweepSpec spec = build_sweep_spec(cli, argv0);
  if (!write_file(cli.out_file, sh::serialize_sweep_spec(spec))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf("spec: %zu cells (%zu circuits x %zu techniques x %zu "
              "machines), digest %s -> %s\n",
              spec.total_cells(), spec.circuits.size(),
              spec.techniques.size(), spec.machines.size(),
              sh::spec_digest(spec).hex().c_str(), cli.out_file.c_str());
  return 0;
}

int run_serve_submit(const CliOptions& cli) {
  namespace sh = parallax::shard;
  namespace sv = parallax::serve;
  std::string bytes;
  if (!read_file(cli.spec_file, bytes)) {
    std::fprintf(stderr, "cannot read sweep spec %s\n",
                 cli.spec_file.c_str());
    return 1;
  }
  const sh::SweepSpec spec = sh::parse_sweep_spec(bytes);
  sv::Client client(cli.socket_path);
  const sv::ClientOutcome outcome = client.run(spec);
  const sv::Summary& summary = outcome.summary;
  if (!summary.ok()) {
    std::fprintf(stderr, "serve request failed: %s\n", summary.error.c_str());
    return 1;
  }
  if (!cli.out_file.empty() &&
      !write_file(cli.out_file, sh::canonical_bytes(outcome.result))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf(
      "serve: %llu cells (%llu executed, %llu failed, %llu cancelled), "
      "%llu result hits, %llu result misses, anneals=%llu in %.1fs\n",
      static_cast<unsigned long long>(summary.total_cells),
      static_cast<unsigned long long>(summary.executed_cells),
      static_cast<unsigned long long>(summary.failed_cells),
      static_cast<unsigned long long>(summary.cancelled_cells),
      static_cast<unsigned long long>(summary.result_cache_hits),
      static_cast<unsigned long long>(summary.result_cache_misses),
      static_cast<unsigned long long>(summary.anneals),
      summary.wall_seconds);
  return summary.failed_cells == 0 && !summary.cancelled ? 0 : 1;
}

int run_serve_command(const CliOptions& cli, const char* argv0) {
  try {
    if (cli.serve_command == "start") return run_serve_start(cli);
    if (cli.serve_command == "spec") return run_serve_spec(cli, argv0);
    if (cli.serve_command == "stats") return run_serve_stats(cli);
    if (cli.serve_command == "stop") return run_serve_stop(cli);
    return run_serve_submit(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "serve %s failed: %s\n", cli.serve_command.c_str(),
                 error.what());
    return 1;
  }
}

int run_import_command(const CliOptions& cli) {
  namespace im = parallax::importer;
  std::vector<im::ImportEntry> entries;
  entries.reserve(cli.inputs.size());
  for (const auto& path : cli.inputs) {
    try {
      entries.push_back(im::import_file(path));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "import failed: %s\n", error.what());
      return 1;
    }
    const im::ImportEntry& entry = entries.back();
    std::fprintf(stderr,
                 "imported %s: %d qubits, %llu gates, %llu bytes, %s\n",
                 entry.path.c_str(), entry.n_qubits,
                 static_cast<unsigned long long>(entry.n_gates),
                 static_cast<unsigned long long>(entry.n_bytes),
                 entry.digest.hex().c_str());
  }
  const std::string manifest = im::write_manifest(entries);
  if (cli.manifest_out.empty()) {
    // Summary rides on stderr, so a bare `import a.qasm > m.tsv` works.
    std::fputs(manifest.c_str(), stdout);
    return 0;
  }
  if (!write_file(cli.manifest_out, manifest)) {
    std::fprintf(stderr, "cannot write %s\n", cli.manifest_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "manifest: %zu circuits -> %s\n", entries.size(),
               cli.manifest_out.c_str());
  return 0;
}

int run_sim_command(const CliOptions& cli, const char* argv0) {
  using namespace parallax;
  const technique::Registry& registry = technique::Registry::global();
  const hardware::HardwareConfig config = machine_config(cli, argv0);

  sweep::CircuitSpec spec;
  try {
    if (!cli.benchmark.empty()) {
      bench_circuits::GenOptions gen;
      gen.seed = cli.seed;
      spec = {cli.benchmark,
              bench_circuits::make_benchmark(cli.benchmark, gen)};
    } else {
      spec = {cli.circuit_file, qasm::parse_file(cli.circuit_file).circuit};
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error loading circuit: %s\n", error.what());
    return 1;
  }

  sweep::Options options;
  options.compile.seed = cli.seed;
  options.compile.scheduler.return_home = cli.home_return;
  options.compile.discretize.spread_factor = cli.spread;
  // The simulated fidelity backend forces per-layer position recording (and
  // keys the cache accordingly).
  options.compile.fidelity.model = noise::FidelityModel::kSimulated;
  options.compile.fidelity.shots = cli.sim_shots;
  options.compute_success_probability = false;  // scored both ways below
  options.n_threads = cli.threads;
  options.cache = open_cache(cli);

  sweep::Result swept;
  try {
    swept = sweep::run({spec}, technique_list(cli, registry),
                       {{cli.machine, config}}, options, registry);
  } catch (const technique::UnknownTechniqueError& error) {
    usage(argv0, error.what());
  }
  if (options.cache) report_cache_line(swept, *options.cache);

  int exit_code = 0;
  for (const auto& cell : swept.cells) {
    if (!cell.ok()) {
      std::fprintf(stderr, "compilation failed (%s): %s\n",
                   cell.technique.c_str(), cell.error.c_str());
      return 1;
    }
    const double model_p =
        noise::success_probability(cell.result, config, options.noise);

    sim::SimOptions sim_options;
    sim_options.shots = cli.sim_shots;
    // The same per-circuit derivation the sweep backend uses, so `sim` and
    // a simulated-fidelity sweep report identical shot streams.
    sim_options.seed =
        util::derive_seed(cli.seed, spec.name, util::kSimSeedSalt);
    sim_options.channels = options.noise;
    sim_options.n_threads = cli.threads;  // 0 = hardware concurrency

    const util::Stopwatch stopwatch;
    sim::SurvivalEstimate estimate;
    try {
      estimate = sim::simulate(cell.result, config, sim_options);
    } catch (const sim::SimError& error) {
      std::fprintf(stderr, "simulation failed (%s): %s\n",
                   cell.technique.c_str(), error.what());
      return 1;
    }
    const double seconds = stopwatch.seconds();

    const compiler::ValidationReport ledger =
        compiler::validate_continuous(cell.result, config);
    if (!ledger.ok) exit_code = 1;

    const double sigma = estimate.std_error();
    const double diff = std::abs(estimate.mean() - model_p);
    const double z = sigma > 0.0 ? diff / sigma : (diff == 0.0 ? 0.0 : 1e9);

    // Non-zero first-failure counts, channel-code order.
    std::string failures;
    for (std::uint8_t c = 1; c < sim::kOutcomeChannels; ++c) {
      if (estimate.failures[c] == 0) continue;
      if (!failures.empty()) failures += cli.json ? "," : "  ";
      if (cli.json) {
        failures += std::string("\"") + sim::outcome_name(c) +
                    "\":" + std::to_string(estimate.failures[c]);
      } else {
        failures += std::string(sim::outcome_name(c)) + "=" +
                    std::to_string(estimate.failures[c]);
      }
    }

    if (cli.json) {
      std::printf(
          "{\"circuit\":\"%s\",\"technique\":\"%s\",\"machine\":\"%s\","
          "\"shots\":%lld,\"model_success\":%.17g,"
          "\"simulated_success\":%.17g,\"std_error\":%.17g,\"z\":%.17g,"
          "\"outcome_digest\":\"%s\",\"ledger_ok\":%s,\"failures\":{%s}}\n",
          cell.circuit.c_str(), cell.technique.c_str(), cell.machine.c_str(),
          static_cast<long long>(estimate.shots), model_p, estimate.mean(),
          sigma, z, estimate.outcome_digest.hex().c_str(),
          ledger.ok ? "true" : "false", failures.c_str());
    } else {
      std::printf("%-9s  CZ=%zu effCZ=%zu layers=%zu runtime=%.1fus%s\n",
                  cell.technique.c_str(), cell.result.stats.cz_gates,
                  cell.result.stats.effective_cz(), cell.result.stats.layers,
                  cell.result.runtime_us, cell.from_cache ? "  [cached]" : "");
      std::printf("  ledger: %s\n", ledger.ok ? "ok" : "FAIL");
      for (const auto& violation : ledger.violations) {
        std::printf("    %s\n", violation.c_str());
      }
      std::printf("  model     P(success) = %.6e\n", model_p);
      std::printf("  simulated P(success) = %.6e +/- %.3e  "
                  "(%lld shots, |z| = %.2f)\n",
                  estimate.mean(), sigma,
                  static_cast<long long>(estimate.shots), z);
      std::printf("  outcome digest: %s\n",
                  estimate.outcome_digest.hex().c_str());
      if (!failures.empty()) {
        std::printf("  failures: %s\n", failures.c_str());
      }
    }
    std::fprintf(stderr, "sim: %s/%s %lld shots in %.3fs (%.0f shots/s)\n",
                 cell.circuit.c_str(), cell.technique.c_str(),
                 static_cast<long long>(estimate.shots), seconds,
                 seconds > 0 ? static_cast<double>(estimate.shots) / seconds
                             : 0.0);
  }
  return exit_code;
}

int run_bench_command(const CliOptions& cli, const char* argv0) {
  namespace rp = parallax::report;
  const rp::Registry& registry = rp::Registry::global();

  if (!cli.perf_json.empty()) {
    rp::PerfOptions perf;
    perf.seed = cli.seed;
    perf.threads = cli.threads;
    perf.baseline_path = cli.perf_baseline;
    try {
      return rp::run_perf_snapshot(cli.perf_json, perf, stderr);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perf suite failed: %s\n", error.what());
      return 1;
    }
  }

  if (cli.list_artifacts) {
    for (const auto& name : registry.names()) {
      const rp::Artifact& artifact = registry.at(name);
      std::printf("%-12s  %-15s %s\n", name.c_str(), artifact.title.c_str(),
                  rp::flat_line(artifact.description).c_str());
    }
    return 0;
  }

  rp::OrchestratorOptions options;
  options.report.seed = cli.seed;
  options.report.full_scale = cli.full_scale;
  options.progress = true;
  const auto format = rp::parse_format(cli.format);
  if (!format) {
    usage(argv0, ("--format expects table, csv, or json, got '" + cli.format +
                  "'")
                     .c_str());
  }
  options.format = *format;
  if (!cli.benchmarks_csv.empty()) {
    options.report.circuits = benchmark_acronyms(cli);
    for (const auto& acronym : options.report.circuits) {
      bool known = false;
      for (const auto& info : parallax::bench_circuits::all_benchmarks()) {
        if (info.acronym == acronym) {
          known = true;
          break;
        }
      }
      if (!known) {
        usage(argv0,
              ("--benchmarks names an unknown Table III acronym '" + acronym +
               "'")
                  .c_str());
      }
    }
  }

  const std::vector<std::string> names =
      cli.all_artifacts ? registry.names() : cli.inputs;

  try {
    // The executor behind the session: an in-process warm SweepService
    // (auto), plain in-process sweeps (off), or a running socket session.
    std::unique_ptr<parallax::serve::SweepService> service;
    std::unique_ptr<parallax::serve::Client> client;
    std::unique_ptr<rp::Runner> runner;
    if (cli.serve_mode == "off") {
      rp::InProcessRunner::Config config;
      config.n_threads = cli.threads;
      config.shards = cli.shards == 0 ? 1 : cli.shards;
      config.cache = open_cache(cli);
      runner = std::make_unique<rp::InProcessRunner>(std::move(config));
    } else if (cli.serve_mode == "auto") {
      parallax::serve::ServiceOptions service_options;
      service_options.n_threads = cli.threads;
      service_options.cache = open_cache(cli);
      service = std::make_unique<parallax::serve::SweepService>(
          std::move(service_options));
      if (service->cache()) {
        std::fprintf(stderr, "bench: session cache at %s\n",
                     service->cache()->directory().c_str());
      }
      runner = std::make_unique<rp::ServiceRunner>(*service);
    } else {
      client = std::make_unique<parallax::serve::Client>(cli.serve_mode);
      runner = std::make_unique<rp::ClientRunner>(*client);
    }

    const parallax::util::Stopwatch stopwatch;
    const auto outcomes = rp::run_artifacts(registry, names, *runner,
                                            options, stdout, stderr);
    rp::print_accounting(stderr, outcomes.size(), runner->totals(),
                         stopwatch.seconds());
    if (client) {
      // The server's lifetime numbers (this run plus every earlier one of
      // the session) — the STATS request over the wire.
      rp::print_server_stats(stderr, client->stats());
    } else if (service) {
      rp::print_server_stats(stderr, service->session_stats());
    }
    for (const auto& outcome : outcomes) {
      if (!outcome.ok) return 1;
    }
    return 0;
  } catch (const rp::UnknownArtifactError& error) {
    usage(argv0, error.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench failed: %s\n", error.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parallax;
  const CliOptions cli = parse_cli(argc, argv);
  const technique::Registry& registry = technique::Registry::global();

  if (cli.bench_command) return run_bench_command(cli, argv[0]);
  if (!cli.cache_command.empty()) return run_cache_command(cli, argv[0]);
  if (!cli.shard_command.empty()) return run_shard_command(cli, argv[0]);
  if (!cli.serve_command.empty()) return run_serve_command(cli, argv[0]);
  if (cli.sim_command) return run_sim_command(cli, argv[0]);
  if (cli.import_command) return run_import_command(cli);

  if (cli.list_techniques) {
    for (const auto& name : registry.names()) {
      std::printf("%-9s  %s\n", name.c_str(),
                  registry.info(name).description.c_str());
    }
    return 0;
  }

  const hardware::HardwareConfig config = machine_config(cli, argv[0]);

  std::vector<sweep::CircuitSpec> specs;
  try {
    if (!cli.benchmark.empty()) {
      bench_circuits::GenOptions gen;
      gen.seed = cli.seed;
      specs.push_back(
          {cli.benchmark, bench_circuits::make_benchmark(cli.benchmark, gen)});
    } else if (!cli.circuit_file.empty()) {
      specs.push_back(
          {cli.circuit_file, qasm::parse_file(cli.circuit_file).circuit});
    } else {
      // Digest-verified manifest load: every imported circuit is one row of
      // the sweep's circuit axis.
      specs = importer::load_circuits(
          importer::load_manifest(cli.import_manifest));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error loading circuit: %s\n", error.what());
    return 1;
  }

  const std::vector<std::string> techniques = technique_list(cli, registry);

  sweep::Options options;
  options.compile.seed = cli.seed;
  options.compile.scheduler.return_home = cli.home_return;
  options.compile.discretize.spread_factor = cli.spread;
  options.compile.placement.max_window_qubits = cli.window;
  options.n_threads = cli.threads;
  options.cache = open_cache(cli);

  sweep::Result swept;
  try {
    swept = sweep::run(specs, techniques, {{cli.machine, config}}, options,
                       registry);
  } catch (const technique::UnknownTechniqueError& error) {
    usage(argv[0], error.what());
  }
  if (options.cache) report_cache_line(swept, *options.cache);

  std::string last_circuit;
  for (const auto& cell : swept.cells) {
    if (!cell.ok()) {
      std::fprintf(stderr, "compilation failed (%s/%s): %s\n",
                   cell.circuit.c_str(), cell.technique.c_str(),
                   cell.error.c_str());
      return 1;
    }
    if (!cli.json && specs.size() > 1 && cell.circuit != last_circuit) {
      std::printf("%s:\n", cell.circuit.c_str());
      last_circuit = cell.circuit;
    }
    if (cli.json) {
      compiler::ReportOptions report_options;
      report_options.include_layers = cli.layers;
      std::printf("%s\n",
                  compiler::report_json(cell.result, config, report_options)
                      .c_str());
    } else {
      print_text_summary(cell);
    }
    if (cli.render) {
      std::printf("%s", hardware::render_topology(cell.result).c_str());
    }
    if (!cli.export_qasm.empty()) {
      qasm::write_qasm_file(cell.result.circuit, cli.export_qasm);
      std::printf("compiled circuit written to %s\n",
                  cli.export_qasm.c_str());
    }
  }
  return 0;
}
