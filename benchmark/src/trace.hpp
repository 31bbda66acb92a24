// Span recorder for the benchmark's traced run. Spans wrap the calls the
// benchmark itself makes into each layer of parallax_core (report, sweep,
// pipeline passes, cache, importer, serve); the per-layer metrics are sums
// over them, and the whole recording exports as Chrome trace-event JSON
// (chrome://tracing, Perfetto). A disabled tracer records nothing and reads
// no clock, so untraced runs pay nothing for it.
#pragma once

#include <chrono>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pbench {

/// What a span's time was spent on: computing, blocked on another thread,
/// or served from a cache/memo instead of computed.
enum class SpanKind { kWork, kWait, kHit };

struct Span {
  std::string name;  // "<layer>.<what>", e.g. "placement.anneal"
  SpanKind kind = SpanKind::kWork;
  double start_s = 0.0;  // seconds since the tracer was created
  double dur_s = 0.0;
  int tid = 0;
};

/// Trace lanes: the main thread, the replay, and one per farm client.
inline constexpr int kMainTid = 0;
inline constexpr int kReplayTid = 1;
inline constexpr int kFirstClientTid = 10;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] double now() const;

  /// RAII span; records on destruction (or end()) when the tracer is on.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, SpanKind kind, int tid);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_kind(SpanKind kind) noexcept { kind_ = kind; }
    void end();

   private:
    Tracer* tracer_;
    std::string name_;
    SpanKind kind_;
    int tid_;
    double start_ = 0.0;
  };

  [[nodiscard]] Scope span(std::string name, SpanKind kind = SpanKind::kWork,
                           int tid = kMainTid) {
    return Scope(enabled_ ? this : nullptr, std::move(name), kind, tid);
  }

  void record(Span span);

  /// Sum of durations of spans named exactly `name`, optionally filtered
  /// by kind.
  [[nodiscard]] double total(std::string_view name) const;
  [[nodiscard]] double total(std::string_view name, SpanKind kind) const;
  /// Sum of self times of spans named exactly `name` and of `kind`: each
  /// span's duration minus what other spans nested inside it on the same
  /// lane cover.
  [[nodiscard]] double self_time(std::string_view name, SpanKind kind) const;
  /// Share of [t0, t1] covered by the union of spans on any lane.
  [[nodiscard]] double coverage(double t0, double t1) const;

  /// Writes every span as Chrome trace-event JSON; `metadata` lands in the
  /// top-level "otherData" object.
  void write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace pbench
