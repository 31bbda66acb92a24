#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace pbench {
namespace {

const char* kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWork:
      return "work";
    case SpanKind::kWait:
      return "wait";
    case SpanKind::kHit:
      return "hit";
  }
  return "work";
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, SpanKind kind, int tid)
    : tracer_(tracer), name_(std::move(name)), kind_(kind), tid_(tid) {
  if (tracer_ != nullptr) start_ = tracer_->now();
}

void Tracer::Scope::end() {
  if (tracer_ == nullptr) return;
  tracer_->record({std::move(name_), kind_, start_, tracer_->now() - start_,
                   tid_});
  tracer_ = nullptr;
}

void Tracer::record(Span span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

double Tracer::total(std::string_view name) const {
  const std::lock_guard lock(mutex_);
  double sum = 0.0;
  for (const auto& span : spans_) {
    if (span.name == name) sum += span.dur_s;
  }
  return sum;
}

double Tracer::total(std::string_view name, SpanKind kind) const {
  const std::lock_guard lock(mutex_);
  double sum = 0.0;
  for (const auto& span : spans_) {
    if (span.name == name && span.kind == kind) sum += span.dur_s;
  }
  return sum;
}

double Tracer::self_time(std::string_view name, SpanKind kind) const {
  const std::lock_guard lock(mutex_);
  double sum = 0.0;
  for (const auto& span : spans_) {
    if (span.name != name || span.kind != kind) continue;
    const double end = span.start_s + span.dur_s;
    double nested = 0.0;
    for (const auto& child : spans_) {
      if (&child != &span && child.tid == span.tid &&
          child.start_s >= span.start_s &&
          child.start_s + child.dur_s <= end) {
        nested += child.dur_s;
      }
    }
    sum += span.dur_s - nested;
  }
  return sum;
}

double Tracer::coverage(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  std::vector<std::pair<double, double>> intervals;
  {
    const std::lock_guard lock(mutex_);
    for (const auto& span : spans_) {
      const double a = std::max(t0, span.start_s);
      const double b = std::min(t1, span.start_s + span.dur_s);
      if (b > a) intervals.emplace_back(a, b);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = t0;
  for (const auto& [a, b] : intervals) {
    if (b <= reach) continue;
    covered += b - std::max(a, reach);
    reach = b;
  }
  return covered / (t1 - t0);
}

void Tracer::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"otherData\":{");
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    std::fprintf(file, "%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                 json_escape(metadata[i].first).c_str(),
                 json_escape(metadata[i].second).c_str());
  }
  std::fprintf(file, "},\"traceEvents\":[");
  const std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto dot = span.name.find('.');
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"kind\":\"%s\"}}",
                 i == 0 ? "" : ",", json_escape(span.name).c_str(),
                 json_escape(span.name.substr(0, dot)).c_str(), span.tid,
                 span.start_s * 1e6, span.dur_s * 1e6, kind_name(span.kind));
  }
  std::fprintf(file, "\n]}\n");
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace pbench
