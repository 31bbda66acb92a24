// Shared vocabulary of the benchmark: the run context, output checks,
// metric maps, summary statistics, and the workload interface the harness
// (main.cpp) drives.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pbench {

namespace fs = std::filesystem;

/// Sweep worker threads and farm pool threads every workload uses.
inline constexpr std::size_t kThreads = 2;

struct Context {
  fs::path root;  // checkout root (tests/goldens lives here)
  fs::path work;  // this run's private scratch directory (the cwd)
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;
};

/// Output checks. Every failed check is one failed operation.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  void attempt(std::uint64_t operations) { attempted_ += operations; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

using Metrics = std::map<std::string, double>;

/// One timed pass of a workload.
struct Pass {
  double wall_s = 0.0;
  /// Per-operation latencies: cells, or serve requests on the farm.
  std::vector<double> latencies;
  /// The wall window on the tracer's clock (trace coverage).
  double trace_t0 = 0.0;
  double trace_t1 = 0.0;
};

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Peak resident set since the last reset_peak_rss(), in MB.
void reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

/// Collects a FILE* stream into a string (report documents and logs).
class MemStream {
 public:
  MemStream();
  ~MemStream();
  MemStream(const MemStream&) = delete;
  MemStream& operator=(const MemStream&) = delete;
  [[nodiscard]] std::FILE* file() const noexcept { return file_; }
  /// Flushes and returns everything written so far.
  [[nodiscard]] std::string str();

 private:
  char* buffer_ = nullptr;
  std::size_t size_ = 0;
  std::FILE* file_ = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds inputs (corpus, cache fill, request specs and a session start).
  /// The harness times each call and calls it several times; the last
  /// call's state is used.
  virtual void setup(int repetition) = 0;
  /// One timed pass. Output checks run after the wall clock stops and
  /// count operations and failures into `checks`. With `traced`, the pass
  /// records layer spans and keeps what the replay needs.
  virtual Pass run_pass(Checks& checks, bool traced) = 0;
  /// Quality metrics (success_geomean, exec_us_geomean) and run-level
  /// output checks, after the timed passes.
  virtual void finish(Checks& checks, Metrics& metrics) = 0;
  /// Per-layer metrics from the traced pass plus a one-thread pass-by-pass
  /// replay of its compilations.
  virtual void layers(Checks& checks, Metrics& metrics) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Context& context);

}  // namespace pbench
