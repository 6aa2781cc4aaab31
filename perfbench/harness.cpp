#include "harness.hpp"

#include <sys/resource.h>

#include <cinttypes>
#include <cstring>
#include <unordered_map>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Quantiles summarize(std::vector<double> v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  double sum = 0.0;
  for (double x : v) sum += x;
  q.mean = sum / static_cast<double>(v.size());
  q.p50 = quantile(v, 0.50);
  q.p90 = quantile(v, 0.90);
  q.p99 = quantile(v, 0.99);
  return q;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------

namespace {
thread_local std::uint32_t t_current_span = 0;
thread_local void* t_buffer = nullptr;
thread_local bool t_muted = false;
}  // namespace

void SpanLog::mute_this_thread(bool muted) { t_muted = muted; }

SpanLog& SpanLog::global() {
  static SpanLog* log = new SpanLog();  // leaked: outlives pool threads
  return *log;
}

SpanLog::Buffer& SpanLog::local_buffer() {
  if (t_buffer == nullptr) {
    auto buf = std::make_unique<Buffer>();
    t_buffer = buf.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<Buffer*>(t_buffer);
}

void SpanLog::record(const Span& s) {
  Buffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.push_back(s);
}

std::vector<Span> SpanLog::collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

void SpanLog::retire() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    archive_.insert(archive_.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
  }
}

std::vector<Span> SpanLog::all() const {
  std::vector<Span> out = collect();
  std::lock_guard<std::mutex> lock(mu_);
  out.insert(out.end(), archive_.begin(), archive_.end());
  return out;
}

ScopedSpan::ScopedSpan(const char* name) {
  SpanLog& log = SpanLog::global();
  if (t_muted || !log.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = log.next_id();
  span_.parent = t_current_span != 0 ? t_current_span : log.ambient_parent();
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_current_span = saved_current_;
  SpanLog::global().record(span_);
}

std::vector<double> span_self_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::vector<double> out;
  out.reserve(spans.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::uint64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      iv.clear();
      for (const Span* c : it->second) {
        const std::uint64_t a = std::max(c->start_ns, s.start_ns);
        const std::uint64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_a = 0, cur_b = 0;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

std::map<std::string, SpanAggregate> aggregate_spans(
    const std::vector<Span>& spans) {
  const std::vector<double> self = span_self_us(spans);
  std::map<std::string, SpanAggregate> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur_us =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    SpanAggregate& agg = out[spans[i].name];
    agg.total_us += dur_us;
    agg.self_us += self[i];
    agg.durations_us.push_back(dur_us);
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "[\"%s\",%" PRIu64 ",%" PRIu64 ",%" PRIu32 ",%" PRIu32 "]%s\n",
                 s.name, s.start_ns, s.end_ns, s.id, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::fail(const std::string& why, std::int64_t n) {
  failed_ += n;
  std::fprintf(stderr, "perfbench: FAILED (%lld): %s\n",
               static_cast<long long>(n), why.c_str());
}

void Report::print_detail() const {
  std::string line = "{\"perfbench_detail\": {";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(details_[i].first) + ": " + details_[i].second;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void Report::print_result() const {
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
