// serve_cold: open-loop band-gap prediction for cache-cold requests.
//
// One generator thread submits on a fixed schedule at rungs of a
// geometric ladder of absolute rates; every request is a distinct
// Materials-Project structure from a corpus 16x the response cache, so
// the cache is consulted but never hits. Latency is timed from each
// request's due time, so a generator stall is charged to the requests
// it delayed; a rung the generator could not drive is invalid.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <set>
#include <thread>
#include <unordered_set>

#include "decorators.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "paths.hpp"
#include "serve/serve.hpp"
#include "tasks/regression.hpp"

namespace perfbench {
namespace {

using namespace matsci;
namespace fe = matsci::serve::frontend;

constexpr const char* kModel = "band_gap_model";
constexpr const char* kTarget = "band_gap";
constexpr std::size_t kCacheCapacity = 1024;
constexpr std::int64_t kCorpusSize = 16 * static_cast<std::int64_t>(kCacheCapacity);
constexpr std::int64_t kWarmupSize = 1024;
constexpr std::int64_t kSpare = 256;  // generated beyond the corpus, for duplicates
constexpr double kLimitUs = 5000.0;        // latency limit on p99
constexpr double kMaxFailShare = 0.01;     // failed-or-shed share limit
constexpr std::int64_t kMaxBatch = 32;

// The ladder: rung k offers kLadderBase * kLadderRatio^k requests/s.
constexpr double kLadderBase = 1000.0;
constexpr double kLadderRatio = 1.05;
constexpr int kLight = 29;     // ~4.1k req/s: batches flush on the timer
constexpr int kHeavy = 59;     // ~17.8k req/s: below the knee
constexpr int kOverload = 98;  // ~119k req/s: 1.5-2.4x the knee
constexpr int kTopRung = 100;

// Minimum dwell of the named rungs (an untraced run stretches them to
// 40% of the path's budget). Capacity probes dwell a fixed time, so the
// capacity means the same thing in every run: a short probe ends before
// a slow backlog shows.
constexpr double kLightSeconds = 1.5;     // >= 1000 requests per sub-window
constexpr double kHeavySeconds = 1.0;
constexpr double kOverloadSeconds = 1.5;
constexpr double kProbeSeconds = 0.2;
constexpr int kStaircaseTrials = 16;

// Generator: spin for the last stretch before each due time.
constexpr std::uint64_t kSpinNs = 500'000;

// Generator validity: the share of the offered rate it must achieve,
// the lateness it may show, and the attempts a rung gets.
constexpr double kMinAchievedShare = 0.98;
constexpr double kMaxLatenessP99Us = kLimitUs;
// Named rungs sit well below the knee, where the spinning generator is
// late by about 100 us at p99; a millisecond there means a host stall.
constexpr double kNamedMaxLatenessP99Us = 1000.0;
constexpr int kAttempts = 3;
constexpr int kNamedAttempts = 8;

double rung_rate(int k) { return kLadderBase * std::pow(kLadderRatio, k); }

models::EGNNConfig encoder_config() {
  models::EGNNConfig cfg;
  cfg.hidden_dim = 32;
  cfg.pos_hidden = 16;
  cfg.num_layers = 3;
  return cfg;
}

models::OutputHeadConfig head_config() {
  models::OutputHeadConfig cfg;
  cfg.hidden_dim = 32;
  cfg.num_blocks = 2;
  cfg.dropout = 0.0f;
  return cfg;
}

serve::SchedulerOptions scheduler_options() {
  serve::SchedulerOptions opts;
  opts.max_batch_size = kMaxBatch;
  opts.max_wait_us = 2000;
  opts.num_workers = 2;
  opts.queue_capacity = 256;
  return opts;
}

serve::InferenceSessionOptions session_options() {
  serve::InferenceSessionOptions opts;
  opts.collate.radius.cutoff = 4.5;
  return opts;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Structures only: the program receives no labels.
std::vector<data::StructureSample> make_corpus(std::int64_t n,
                                               std::uint64_t seed) {
  materials::MaterialsProjectDataset ds(n, seed);
  std::vector<data::StructureSample> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    data::StructureSample s = ds.get(i);
    s.scalar_targets.clear();
    s.class_targets.clear();
    s.forces.clear();
    out.push_back(std::move(s));
  }
  // Seeded send order.
  core::RngEngine rng(seed ^ 0x5eedull);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1],
              out[static_cast<std::size_t>(rng.next_int(static_cast<std::int64_t>(i)))]);
  }
  return out;
}

struct ServeSystem {
  std::vector<data::StructureSample> corpus;
  std::shared_ptr<tasks::ScalarRegressionTask> task;
  TaskCounters counters;
  std::unique_ptr<fe::ServeFrontend> frontend;
};

/// Keep the first structure of every cache key, up to `n`: generated
/// structures occasionally coincide after canonicalisation, and a repeat
/// would be a legitimate cache hit on a workload meant to be cold.
std::vector<data::StructureSample> distinct(std::vector<data::StructureSample> in,
                                            std::size_t n, fe::ResponseCache& cache,
                                            std::unordered_set<std::string>& seen) {
  std::vector<data::StructureSample> out;
  for (data::StructureSample& s : in) {
    if (out.size() == n) break;
    if (seen.insert(cache.make_key(s, kTarget, 1)).second) out.push_back(std::move(s));
  }
  return out;
}

void build_system(ServeSystem& sys, std::uint64_t seed, bool decorate) {
  sys.frontend.reset();  // release the previous repetition's workers
  fe::FrontendOptions fopts;
  fopts.cache.capacity = kCacheCapacity;
  sys.frontend = std::make_unique<fe::ServeFrontend>(fopts);
  std::unordered_set<std::string> seen;
  sys.corpus = distinct(make_corpus(kCorpusSize + kSpare, mix(seed ^ 0xc0de)),
                        static_cast<std::size_t>(kCorpusSize), sys.frontend->cache(), seen);
  // Warm-up structures share no key with the corpus either.
  const std::vector<data::StructureSample> warm =
      distinct(make_corpus(kWarmupSize, mix(seed ^ 0x3a3a)),
               static_cast<std::size_t>(kWarmupSize), sys.frontend->cache(), seen);

  core::RngEngine rng(7);
  auto encoder = std::make_shared<models::EGNN>(encoder_config(), rng);
  sys.task = std::make_shared<tasks::ScalarRegressionTask>(
      encoder, kTarget, head_config(), rng, data::TargetStats{2.0f, 1.5f});
  std::shared_ptr<tasks::Task> served = sys.task;
  if (decorate) served = std::make_shared<TimedTask>(sys.task, sys.counters);
  sys.frontend->deploy(
      kModel, 1,
      std::make_shared<serve::InferenceSession>(served, session_options()),
      scheduler_options());

  // Warm-up in waves the bounded queue accepts: first-touch
  // allocations, pool buffers and the admission estimate.
  fe::FrontendRequestOptions ropts;
  for (std::size_t i = 0; i < warm.size(); i += 64) {
    std::vector<std::future<serve::PredictResult>> futures;
    for (std::size_t j = i; j < std::min(warm.size(), i + 64); ++j) {
      fe::SubmitOutcome out = sys.frontend->submit(kModel, warm[j], kTarget, ropts);
      if (out.ok()) futures.push_back(std::move(out.future));
    }
    for (auto& f : futures) (void)f.get();
  }
}

struct RequestRecord {
  std::uint64_t due_ns = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t corpus_index = 0;
  fe::SubmitStatus status = fe::SubmitStatus::kNoSuchModel;
  std::future<serve::PredictResult> future;
};

struct RungResult {
  int rung = 0;
  double rate = 0.0;
  std::int64_t sent = 0;
  std::int64_t served = 0;
  std::int64_t cache_hits = 0;
  std::int64_t shed = 0;     ///< admission sheds + queue deadline drops
  std::int64_t lost = 0;     ///< broken futures other than sheds
  std::int64_t mismatches = 0;
  double achieved_share = 0.0;
  bool backlog_growing = false;
  /// Due time to answer; failed and shed requests count as +inf.
  std::vector<double> latency_us;
  std::vector<double> served_latency_us;
  std::vector<double> submit_us;
  std::vector<double> lateness_us;
  std::vector<double> queue_wait_us;
  std::vector<double> service_us;       ///< per served request
  std::vector<double> batch_size;       ///< per served request

  // Criteria are judged per sub-window (a contiguous fifth of the send
  // order) and the rung takes the majority, so a host stall inside one
  // sub-window does not decide the rung; percentiles reported for a
  // rung are the median over sub-windows of the sub-window percentile.
  static constexpr int kSubWindows = 5;

  std::vector<double> slice(const std::vector<double>& v, int w) const {
    const std::size_t n = v.size();
    return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(n * w / kSubWindows),
                               v.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / kSubWindows));
  }
  double robust(const std::vector<double>& v, double q) const {
    std::vector<double> per;
    for (int w = 0; w < kSubWindows; ++w) per.push_back(quantile(slice(v, w), q));
    return median(per);
  }
  double p(double q) const { return robust(latency_us, q); }
  double lateness_p99() const { return robust(lateness_us, 0.99); }
  /// The generator kept its schedule: it achieved the offered rate and
  /// was not held up for longer than the latency limit (a host stall,
  /// which stalls the service with it).
  double max_lateness_us = kMaxLatenessP99Us;
  bool generator_valid() const {
    return achieved_share >= kMinAchievedShare && lateness_p99() <= max_lateness_us;
  }
  bool window_ok(int w) const {
    const std::vector<double> lat = slice(latency_us, w);
    const double failed = static_cast<double>(
        std::count(lat.begin(), lat.end(), std::numeric_limits<double>::infinity()));
    return quantile(lat, 0.99) <= kLimitUs &&
           quantile(slice(lateness_us, w), 0.99) <= kMaxLatenessP99Us &&
           failed <= kMaxFailShare * static_cast<double>(lat.size());
  }
  bool meets_limit() const {
    int ok = 0;
    for (int w = 0; w < kSubWindows; ++w) ok += window_ok(w) ? 1 : 0;
    return generator_valid() && !backlog_growing && 2 * ok > kSubWindows;
  }
  /// Requests per second answered within `limit_us` (sub-window
  /// median); shed and failed requests never count.
  double rps_within(double limit_us) const {
    std::vector<double> per;
    for (int w = 0; w < kSubWindows; ++w) {
      const std::vector<double> lat = slice(latency_us, w);
      const double ok = static_cast<double>(
          std::count_if(lat.begin(), lat.end(), [&](double x) { return x <= limit_us; }));
      per.push_back(ok * rate / static_cast<double>(lat.size()));
    }
    return median(per);
  }
};

serve::Priority priority_for(std::uint64_t key) {
  const std::uint64_t cls = mix(key) % 10;  // 10/60/30 mix
  return cls == 0 ? serve::Priority::kInteractive
         : cls < 7 ? serve::Priority::kStandard
                   : serve::Priority::kBatch;
}

RungResult run_rung(ServeSystem& sys, const std::vector<float>& refs, int rung,
                    double dwell_s, std::uint64_t& cursor, std::uint64_t seed) {
  RungResult r;
  r.rung = rung;
  r.rate = rung_rate(rung);
  const std::int64_t n =
      std::max<std::int64_t>(1, std::llround(r.rate * dwell_s));
  r.sent = n;
  std::vector<RequestRecord> recs(static_cast<std::size_t>(n));
  std::vector<std::int64_t> depth(static_cast<std::size_t>(n), 0);
  const std::shared_ptr<fe::ServingModel> model =
      sys.frontend->registry().resolve(kModel);
  const double interval_ns = 1e9 / r.rate;
  const std::uint64_t first = cursor;

  // raw thread: the generator must tick on the wall clock, independent
  // of the pool that serves the requests it emits.
  std::thread generator([&] {
    const std::uint64_t t0 = now_ns() + 200'000;
    for (std::int64_t i = 0; i < n; ++i) {
      RequestRecord& rec = recs[static_cast<std::size_t>(i)];
      rec.due_ns = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
      // Sleep to just short of the due time, then spin: a timer wake-up
      // can be late by milliseconds on a virtualised host, and that
      // lateness would be charged to the request.
      if (now_ns() + kSpinNs < rec.due_ns) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(rec.due_ns - kSpinNs)));
      }
      while (now_ns() < rec.due_ns) {
      }
      const std::uint64_t key = first + static_cast<std::uint64_t>(i);
      rec.corpus_index = static_cast<std::size_t>(key % sys.corpus.size());
      fe::FrontendRequestOptions ropts;
      ropts.priority = priority_for(seed ^ key);
      ropts.deadline_us = 500'000;
      rec.start_ns = now_ns();
      {
        ScopedSpan span("frontend.submit");
        fe::SubmitOutcome out =
            sys.frontend->submit(kModel, sys.corpus[rec.corpus_index], kTarget, ropts);
        rec.status = out.status;
        if (out.ok()) rec.future = std::move(out.future);
      }
      rec.end_ns = now_ns();
      depth[static_cast<std::size_t>(i)] = model->scheduler().queue_depth();
    }
  });
  generator.join();
  cursor += static_cast<std::uint64_t>(n);

  const double inf = std::numeric_limits<double>::infinity();
  for (RequestRecord& rec : recs) {
    const double lateness = static_cast<double>(rec.start_ns - rec.due_ns) / 1e3;
    const double submit = static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
    r.lateness_us.push_back(lateness);
    r.submit_us.push_back(submit);
    if (rec.status == fe::SubmitStatus::kCacheHit) ++r.cache_hits;
    if (!rec.future.valid()) {
      ++r.shed;
      r.latency_us.push_back(inf);
      continue;
    }
    try {
      const serve::PredictResult res = rec.future.get();
      ++r.served;
      const float want = refs[rec.corpus_index];
      if (std::memcmp(&res.prediction.value, &want, sizeof(float)) != 0) {
        ++r.mismatches;
      }
      // Due time to fulfilment: the enqueue-to-fulfilment interval the
      // scheduler reports plus everything before it (lateness and the
      // submit call; the tail of submit after the enqueue is counted
      // twice, a bias of well under a microsecond).
      const double lat = static_cast<double>(rec.end_ns - rec.due_ns) / 1e3 +
                         res.latency_us;
      r.latency_us.push_back(lat);
      r.served_latency_us.push_back(lat);
      r.queue_wait_us.push_back(res.latency_us - res.service_us);
      r.service_us.push_back(res.service_us);
      r.batch_size.push_back(static_cast<double>(res.batch_size));
    } catch (const serve::ShedError&) {
      ++r.shed;
      r.latency_us.push_back(inf);
    } catch (...) {
      ++r.lost;
      r.latency_us.push_back(inf);
    }
  }
  // Drain: later rungs must not inherit this rung's queue.
  while (model->scheduler().queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  if (n > 1) {
    const double span_s =
        static_cast<double>(recs.back().start_ns - recs.front().start_ns) / 1e9;
    const double achieved = span_s > 0.0 ? static_cast<double>(n - 1) / span_s : r.rate;
    r.achieved_share = achieved / r.rate;
  } else {
    r.achieved_share = 1.0;
  }
  // Growing backlog: the queue in the last quarter of the window is
  // well above the second quarter's level.
  if (n >= 8) {
    const std::size_t q = static_cast<std::size_t>(n / 4);
    auto mean_of = [&](std::size_t a, std::size_t b) {
      double s = 0.0;
      for (std::size_t i = a; i < b; ++i) s += static_cast<double>(depth[i]);
      return s / static_cast<double>(b - a);
    };
    r.backlog_growing = mean_of(3 * q, static_cast<std::size_t>(n)) >
                        2.0 * mean_of(q, 2 * q) + static_cast<double>(kMaxBatch);
  }
  return r;
}

std::string rung_json(const RungResult& r) {
  const Quantiles q = summarize(r.served_latency_us);
  std::string s = "{\"rung\": " + std::to_string(r.rung) +
                  ", \"rate_rps\": " + json_number(r.rate) +
                  ", \"sent\": " + std::to_string(r.sent) +
                  ", \"served\": " + std::to_string(r.served) +
                  ", \"shed\": " + std::to_string(r.shed) +
                  ", \"lost\": " + std::to_string(r.lost) +
                  ", \"cache_hits\": " + std::to_string(r.cache_hits) +
                  ", \"p50_ms\": " + json_number(r.p(0.5) / 1e3) +
                  ", \"p99_ms\": " + json_number(r.p(0.99) / 1e3) +
                  ", \"served_mean_ms\": " + json_number(q.mean / 1e3) +
                  ", \"latency_samples\": " + std::to_string(r.latency_us.size()) +
                  ", \"achieved_share\": " + json_number(r.achieved_share) +
                  ", \"lateness_p99_us\": " + json_number(r.lateness_p99()) +
                  ", \"backlog_growing\": " + (r.backlog_growing ? "true" : "false") +
                  ", \"generator_valid\": " + (r.generator_valid() ? "true" : "false") +
                  ", \"meets_limit\": " + (r.meets_limit() ? "true" : "false") + "}";
  return s;
}

/// Record the rung's operations and correctness violations.
void account(const RungResult& r, Report& report) {
  report.attempt(r.sent);
  if (r.mismatches > 0) {
    report.fail("serve_cold rung " + std::to_string(r.rung) + ": " +
                    std::to_string(r.mismatches) +
                    " answers differ from the single-structure reference",
                r.mismatches);
  }
  if (r.lost > 0) {
    report.fail("serve_cold rung " + std::to_string(r.rung) + ": " +
                    std::to_string(r.lost) + " requests lost",
                r.lost);
  }
  if (r.cache_hits > 0) {
    report.fail("serve_cold rung " + std::to_string(r.rung) + ": " +
                    std::to_string(r.cache_hits) +
                    " cache hits on a cache-cold workload",
                r.cache_hits);
  }
}

}  // namespace

PathOutcome run_serve_cold(const PathRun& run, Report& report) {
  PathOutcome outcome;
  ServeSystem sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    build_system(sys, run.seed, run.trace);
    outcome.setup_samples_s.push_back(seconds_since(t0));
  }

  // Single-structure references, outside set-up and every timed phase.
  std::vector<float> refs;
  {
    const serve::InferenceSession ref_session(sys.task, session_options());
    refs.reserve(sys.corpus.size());
    for (const data::StructureSample& s : sys.corpus) {
      refs.push_back(ref_session.predict({s}, kTarget)[0].value);
    }
  }
  // Cache-cold by construction: at least 16x the cache, pairwise
  // distinct keys, so a key recurs only after 16x capacity insertions.
  if (sys.corpus.size() < 16 * kCacheCapacity) {
    report.fail("serve_cold corpus has " + std::to_string(sys.corpus.size()) +
                " distinct structures, fewer than 16x the response cache");
  }

  std::uint64_t cursor = 0;
  std::string rungs_json;
  auto note = [&](const RungResult& r, const char* role) {
    if (!rungs_json.empty()) rungs_json += ", ";
    rungs_json += "{\"role\": " + json_string(role) + ", \"result\": " + rung_json(r) + "}";
    account(r, report);
  };

  // A rung the generator could not drive is invalid and is run again.
  // A capacity probe that stays invalid counts as missing the limits.
  auto measure = [&](int rung, double dwell_s, const char* role,
                     double max_lateness_us = kMaxLatenessP99Us,
                     int attempts = kAttempts) {
    RungResult r;
    for (int attempt = 0; attempt < attempts; ++attempt) {
      r = run_rung(sys, refs, rung, dwell_s, cursor, run.seed);
      r.max_lateness_us = max_lateness_us;
      note(r, r.generator_valid() ? role : "invalid (generator behind)");
      if (r.generator_valid()) break;
    }
    return r;
  };

  // Capacity, a per-layer metric of the traced run: bisect for the knee
  // between the highest known pass and the lowest known failure (the
  // named rungs seed both ends), then an up-down staircase from the
  // first failing rung — one rung up after a pass, one down after a
  // failure. Near the knee a single trial passes or fails by chance; the
  // staircase hovers around the rate at which a rung meets the limits
  // half the time, and the result is the mean achieved rate over its
  // trials. It is not an end-to-end metric: the knee follows the host's
  // speed, which on a shared 4-vCPU VM moved it between 52k and 85k
  // req/s from run to run, beyond any 25% bound.
  auto capacity = [&](const std::vector<const RungResult*>& seeds, int trials) {
    // A pass outranks any failure below it: the service cannot meet the
    // limit at a higher rate yet miss it at a lower one, so such a
    // failure was a transient (a host stall) and is set aside.
    int lo = -1;
    std::set<int> fails;
    auto learn = [&](const RungResult& r) {
      if (r.meets_limit()) {
        lo = std::max(lo, r.rung);
      } else {
        fails.insert(r.rung);
      }
    };
    auto first_fail = [&] {
      const auto it = fails.upper_bound(lo);
      return it == fails.end() ? kTopRung + 1 : *it;
    };
    for (const RungResult* r : seeds) learn(*r);
    int hi = first_fail();
    while (hi - lo > 1) {
      learn(measure((lo + hi) / 2, kProbeSeconds, "bisect"));
      hi = first_fail();
    }
    double rate_sum = 0.0;
    int passes = 0;
    for (int t = 0, k = hi; t < trials; ++t) {
      k = std::clamp(k, 0, kTopRung);
      const RungResult trial = measure(k, kProbeSeconds, "staircase");
      rate_sum += trial.achieved_share * trial.rate;
      if (trial.meets_limit()) {
        ++passes;
        ++k;
      } else {
        --k;
      }
    }
    report.detail("serve_cold.knee", "{\"last_pass\": " + std::to_string(lo) +
                                         ", \"first_fail\": " + std::to_string(hi) +
                                         ", \"staircase_trials\": " + std::to_string(trials) +
                                         ", \"staircase_passes\": " + std::to_string(passes) +
                                         "}");
    return rate_sum / static_cast<double>(trials);
  };

  if (!run.trace) {
    // The named rungs dwell longer when the path has more budget: more
    // samples in each sub-window.
    const double dwell_s = std::max(kHeavySeconds, 0.4 * run.budget_s);
    // A named rung gets more attempts, to outlast a host stall. One that
    // stays invalid is still reported (the result needs every metric)
    // but is flagged in the detail line: a stalled host is not a fault
    // of the program, and the figures of that run are not comparable.
    std::string invalid_named;
    auto named = [&](int rung, double seconds, const char* role) {
      RungResult r = measure(rung, seconds, role, kNamedMaxLatenessP99Us, kNamedAttempts);
      if (!r.generator_valid()) {
        std::fprintf(stderr, "perfbench: serve_cold %s rung invalid after %d attempts "
                     "(generator behind: host stall)\n", role, kNamedAttempts);
        invalid_named += std::string(invalid_named.empty() ? "" : ", ") + json_string(role);
      }
      return r;
    };
    const RungResult light = named(kLight, std::max(kLightSeconds, dwell_s), "light");
    const RungResult heavy = named(kHeavy, dwell_s, "heavy");

    for (const auto& [r, name] : {std::pair{&light, "light"}, std::pair{&heavy, "heavy"}}) {
      double p50 = r->p(0.5), p99 = r->p(0.99);
      if (!std::isfinite(p99)) {
        // Over 1% of most sub-windows failed or was shed: the percentile
        // is unbounded. Report the served requests' figure, flagged.
        std::fprintf(stderr, "perfbench: serve_cold %s rung shed over 1%%; "
                     "percentiles cover served requests only\n", name);
        invalid_named += std::string(invalid_named.empty() ? "" : ", ") +
                         json_string(std::string(name) + " (unbounded p99)");
        p50 = quantile(r->served_latency_us, 0.5);
        p99 = quantile(r->served_latency_us, 0.99);
      }
      report.set(std::string("p50_ms.") + name, p50 / 1e3, "ms");
      report.set(std::string("p99_ms.") + name, p99 / 1e3, "ms");
    }
    report.detail("serve_cold.invalid_named_rungs", "[" + invalid_named + "]");
  } else {
    const double B = run.budget_s;
    SpanLog& log = SpanLog::global();
    // Untraced reference, then the same rungs traced.
    log.set_enabled(false);
    const RungResult ref_heavy =
        measure(kHeavy, kHeavySeconds, "untraced heavy", kNamedMaxLatenessP99Us);
    log.retire();
    sys.counters.clear();
    log.set_enabled(true);
    PoolWatch pool;
    const RungResult light =
        measure(kLight, kLightSeconds, "traced light", kNamedMaxLatenessP99Us);
    pool.sample();
    sys.counters.clear();
    log.retire();
    const RungResult heavy = measure(kHeavy, std::max(kHeavySeconds, 0.4 * B), "traced heavy",
                                     kNamedMaxLatenessP99Us);
    pool.sample();
    TaskCounters& c = sys.counters;
    std::size_t task_calls = 0;
    double task_total_us = 0.0, task_weighted_us = 0.0;
    std::int64_t task_graphs = 0, nodes = 0, edges = 0;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      task_total_us = c.total_us();
      task_weighted_us = c.graph_weighted_us();
      task_graphs = c.graphs();
      nodes = c.nodes;
      edges = c.edges;
      task_calls = c.call_us.size();
    }
    const RungResult over = measure(kOverload, kOverloadSeconds, "traced overload",
                                    kNamedMaxLatenessP99Us);
    log.set_enabled(false);
    pool.sample();
    pool.report(report);
    // Capacity, untraced, seeded by the traced named rungs.
    report.set("max_rate_rps", capacity({&light, &heavy, &over}, kStaircaseTrials), "1/s");

    const double R = static_cast<double>(heavy.served);
    double service_sum = 0.0, inv_batch_sum = 0.0, per_struct_service = 0.0;
    for (std::size_t i = 0; i < heavy.service_us.size(); ++i) {
      service_sum += heavy.service_us[i];
      inv_batch_sum += 1.0 / heavy.batch_size[i];
      per_struct_service += heavy.service_us[i] / heavy.batch_size[i];
    }
    const double service_us_per_struct = per_struct_service / R;
    const double predict_us_per_struct =
        task_graphs > 0 ? task_total_us / static_cast<double>(task_graphs) : 0.0;
    const Quantiles submit = summarize(heavy.submit_us);
    const Quantiles lateness = summarize(heavy.lateness_us);
    const Quantiles qwait = summarize(heavy.queue_wait_us);
    const double flops = egnn_forward_flops(32, 16, 3, 32, 2, 1,
                                            static_cast<double>(nodes),
                                            static_cast<double>(edges),
                                            static_cast<double>(task_graphs));

    report.set("frontend.submit_us.p50", submit.p50, "us");
    report.set("frontend.submit_us.p99", submit.p99, "us");
    report.set("frontend.shed_share",
               static_cast<double>(over.shed) / static_cast<double>(over.sent), "share");
    // Goodput under overload: answered requests per second. Per-layer
    // only: at one offered rate a run settles into one of two regimes,
    // about 55k or 75k answered/s on a 4-core host. Answers within the
    // 5 ms limit swing wider still, because with the admission queue
    // full the queue wait (about 256 requests / capacity) sits within a
    // few hundred microseconds of the limit.
    report.set("overload_goodput_rps",
               over.rps_within(std::numeric_limits<double>::max()), "1/s");
    report.detail("serve_cold.overload_within_limit_rps", json_number(over.rps_within(kLimitUs)));
    const std::int64_t hits = light.cache_hits + heavy.cache_hits + over.cache_hits +
                              ref_heavy.cache_hits;
    const std::int64_t sent = light.sent + heavy.sent + over.sent + ref_heavy.sent;
    report.set("frontend.cache_hit_share",
               static_cast<double>(hits) / static_cast<double>(sent), "share");
    report.set("queue.wait_us.p50", quantile(light.queue_wait_us, 0.5), "us");
    report.set("queue.wait_us.p99", qwait.p99, "us");
    report.set("scheduler.batch_size.mean", R / inv_batch_sum, "count");
    report.set("scheduler.service_us_per_struct", service_us_per_struct, "us");
    report.set("data.collate_us_per_struct",
               service_us_per_struct - predict_us_per_struct, "us");
    report.set("tasks.predict_us_per_struct", predict_us_per_struct, "us");
    report.set("kernels.gflop_per_op.serve_cold",
               task_calls == 0 ? 0.0 : flops / 1e9 / static_cast<double>(task_calls),
               "GFLOP");
    report.set("kernels.gflops_per_s.serve_cold",
               task_total_us > 0.0 ? flops / 1e3 / task_total_us : 0.0, "GFLOP/s");
    double worst_lateness = 0.0, worst_share = 1.0;
    for (const RungResult* r : {&light, &heavy, &over}) {
      worst_lateness = std::max(worst_lateness, r->lateness_p99());
      worst_share = std::min(worst_share, r->achieved_share);
    }
    report.set("loadgen.lateness_us.p99", worst_lateness, "us");
    report.set("loadgen.achieved_share", worst_share, "share");

    // Ledger of the mean heavy-rung request: the parts add up to the
    // traced mean latency; the reference is the untraced mean.
    const double task_per_req = task_weighted_us / R;
    const std::vector<LedgerRow> rows = {
        {"loadgen.lateness", lateness.mean},
        {"frontend.submit", submit.mean},
        {"queue.wait", qwait.mean},
        {"data.collate", service_sum / R - task_per_req},
        {"tasks.predict_batch", task_per_req},
    };
    const double ref_mean = summarize(ref_heavy.served_latency_us).mean;
    const double traced_mean = summarize(heavy.served_latency_us).mean;
    report.set("ledger.closure_err.serve_cold",
               print_ledger("serve_cold (heavy rung)", "request", rows, ref_mean),
               "share");
    report.set("trace.overhead_share.serve_cold",
               (traced_mean - ref_mean) / ref_mean, "share");
    report.detail("serve_cold.ledger_samples", std::to_string(heavy.served));
  }
  report.detail("serve_cold.rungs", "[" + rungs_json + "]");
  report.detail("serve_cold.corpus", "{\"structures\": " + std::to_string(sys.corpus.size()) +
                                         ", \"cache_capacity\": " +
                                         std::to_string(kCacheCapacity) + "}");
  sys.frontend.reset();
  return outcome;
}

}  // namespace perfbench
