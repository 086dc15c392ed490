#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "perf.h"

namespace uic::perf {
namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The innermost open span of this thread (its id), i.e. the parent of the
// next span this thread opens.
thread_local uint64_t t_open_span = 0;
std::atomic<uint64_t> g_next_span_id{1};

}  // namespace

SpanLog::SpanLog() : origin_ns_(SteadyNs()) {}

SpanLog::Scope::Scope(SpanLog* log, const char* name, uint64_t request)
    : log_(log) {
  if (log_ != nullptr) {
    span_.name = name;
    span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    span_.parent = t_open_span;
    span_.request = request;
    saved_parent_ = t_open_span;
    t_open_span = span_.id;
  }
  start_us_ = static_cast<double>(SteadyNs()) / 1e3;
}

double SpanLog::Scope::Finish() {
  if (ms_ >= 0.0) return ms_;
  const double end_us = static_cast<double>(SteadyNs()) / 1e3;
  ms_ = (end_us - start_us_) / 1e3;
  if (log_ != nullptr) {
    const double origin_us = static_cast<double>(log_->origin_ns_) / 1e3;
    span_.start_us = start_us_ - origin_us;
    span_.end_us = end_us - origin_us;
    t_open_span = saved_parent_;
    log_->Record(span_);
  }
  return ms_;
}

void SpanLog::Record(const Span& span) {
  MutexLock lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, double> SpanLog::MedianSelfMs() const {
  MutexLock lock(mu_);
  // Children of one span run on its thread, one after another, so the
  // part of the parent they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> child_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, std::vector<double>> self_ms;
  for (const Span& s : spans_) {
    const auto it = child_us.find(s.id);
    if (it == child_us.end()) continue;  // a leaf: self time = duration
    self_ms[s.name].push_back((s.end_us - s.start_us - it->second) / 1e3);
  }
  std::map<std::string, double> medians;
  for (auto& [name, values] : self_ms) medians[name] = Median(values);
  return medians;
}

Status SpanLog::WriteJsonl(const std::string& path) const {
  MutexLock lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot open " + path);
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":%s,\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 serve::JsonEscape(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us);
  }
  if (std::fclose(out) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

void FinishTrace(const RunConfig& config, const SpanLog& log,
                 Report* report) {
  for (const auto& [name, ms] : log.MedianSelfMs()) {
    report->Add("self_ms." + name, ms, "ms");
  }
  if (!config.trace_out.empty()) {
    const Status written = log.WriteJsonl(config.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "uic_perf: %s\n", written.ToString().c_str());
      report->CountOp(false);
    }
  }
}

}  // namespace uic::perf
