#pragma once

// Shared measurement plumbing for the layered benchmark: exact
// percentiles over raw samples, the benchmark's own span log (kept in
// memory, written at exit) and the result writer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Exact order statistics.

/// Percentile `q` in [0, 1] of the raw samples, by linear interpolation
/// between the two closest ranks of the sorted sample (the "type 7"
/// estimator). Exact: no histogram, no bucketing. 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// Mean and several percentiles of one sample.
struct Quantiles {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};
Quantiles summarize(std::vector<double> v);

double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Span log. Spans live in per-thread buffers owned by the log and are
// only read after every producer has quiesced; each buffer carries its
// own (uncontended) mutex so a late writer cannot race the reader.

struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
};

class SpanLog {
 public:
  static SpanLog& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  /// Stop recording spans opened on the calling thread (e.g. every DDP
  /// rank but rank 0).
  static void mute_this_thread(bool muted);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Parent for spans opened on threads with no open span of their own
  /// (e.g. serve worker forwards issued during one MD force evaluation).
  void set_ambient_parent(std::uint32_t id) {
    ambient_.store(id, std::memory_order_release);
  }
  std::uint32_t ambient_parent() const {
    return ambient_.load(std::memory_order_acquire);
  }

  std::uint32_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& s);

  /// Every span recorded since the last retire(), in no particular order.
  std::vector<Span> collect() const;
  /// Move the current spans to the archive (kept for the exit dump).
  void retire();
  /// Every span ever recorded: the archive plus the current set.
  std::vector<Span> all() const;

 private:
  struct Buffer {
    std::mutex mu;
    std::deque<Span> spans;  ///< no reallocating copy under the writer
  };
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> ambient_{0};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<Span> archive_;  ///< guarded by mu_
};

/// RAII span: records [construction, destruction) under `name` when the
/// log is enabled; otherwise costs one atomic load. The parent is the
/// innermost open ScopedSpan on this thread, else the ambient parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }
  /// False when the log was disabled (or this thread muted) at entry.
  bool active() const { return active_; }
  /// Duration so far (or final duration once destroyed), ns.
  std::uint64_t elapsed_ns() const { return now_ns() - span_.start_ns; }

 private:
  Span span_;
  bool active_ = false;
  std::uint32_t saved_current_ = 0;
};

/// Per-name aggregate over a span set: total duration, self time
/// (duration minus the union of its children's intervals) and each
/// span's duration.
struct SpanAggregate {
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> durations_us;
};
std::map<std::string, SpanAggregate> aggregate_spans(
    const std::vector<Span>& spans);

/// Self time (µs) of each span, index-aligned with `spans`.
std::vector<double> span_self_us(const std::vector<Span>& spans);

/// Write spans as a JSON array (name, start_ns, end_ns, id, parent).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics of one run plus the operation ledger. Failures are counted
/// and described on stderr; any failure makes the run incorrect.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not a finite number");
      value = 0.0;
    }
    metrics_[name] = Metric{value, unit};
  }
  /// Sum / maximum over several contributions (e.g. one per path).
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{metrics_[name].value + value, unit};
  }
  void max(const std::string& name, double value, const std::string& unit) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end() || it->second.value < value) metrics_[name] = Metric{value, unit};
  }
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::int64_t n = 1);

  std::int64_t failed() const { return failed_; }

  /// Detail record (sample counts, rung table, metadata) printed as one
  /// JSON line ahead of the result.
  void detail(const std::string& key, const std::string& json_value) {
    details_.emplace_back(key, json_value);
  }

  void print_detail() const;
  void print_result() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

std::string json_number(double v);
std::string json_string(const std::string& s);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
