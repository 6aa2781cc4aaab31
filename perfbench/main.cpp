// Layered benchmark of the toolkit's three user-facing paths: a
// cache-cold serve request (serve_cold), one ML-potential MD wave
// (md_wave) and one DDP pretraining step (train_ddp).
//
//   perfbench --workload <serve_cold|md_wave|train_ddp> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Every run measures all three paths, so every end-to-end metric is
// printed on every workload; the workload names the path that gets the
// larger share of the measuring window. --trace 0 reports end-to-end
// metrics with no decorators installed. --trace 1 is a separate run
// that wraps the library's public interfaces in timing decorators,
// prints a per-layer self-time table per path, reports the per-layer
// metrics, and writes the spans to --trace-out at exit.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Any correctness violation makes the exit code non-zero.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/backend/backend.hpp"
#include "core/parallel/thread_pool.hpp"
#include "harness.hpp"
#include "paths.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_cold|md_wave|"
               "train_ddp> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload != "serve_cold" && a.workload != "md_wave" &&
      a.workload != "train_ddp") {
    usage("unknown workload");
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

// Share of the window the named workload's own path measures for; the
// other two paths split the rest.
constexpr double kPrimaryShare = 0.5;

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Two serve workers (or two committee members) hold pool slots for
  // their lifetime; keep compute slots beside them on small hosts.
  namespace par = matsci::core::parallel;
  if (par::num_threads() < 4) par::set_num_threads(4);

  Report report;
  report.detail("host", "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                            ", \"pool_threads\": " + std::to_string(par::num_threads()) +
                            ", \"kernel_backend\": " +
                            json_string(matsci::core::backend::kernels().name) +
#if defined(MATSCI_OBS_ENABLED)
                            ", \"obs_build\": true" +
#else
                            ", \"obs_build\": false" +
#endif
                            "}");
  report.detail("run", "{\"workload\": " + json_string(args.workload) +
                           ", \"seed\": " + std::to_string(args.seed) +
                           ", \"seconds\": " + json_number(args.seconds) +
                           ", \"trace\": " + std::to_string(args.trace) + "}");

  struct Path {
    const char* name;
    PathOutcome (*fn)(const PathRun&, Report&);
  };
  const Path paths[] = {{"serve_cold", run_serve_cold},
                        {"md_wave", run_md_wave},
                        {"train_ddp", run_train_ddp}};
  double setup_s = 0.0;
  std::string setup_json;
  std::string rss_json;  // peak RSS after each path
  for (const Path& p : paths) {
    PathRun run;
    run.seed = args.seed;
    run.trace = args.trace == 1;
    const bool primary = args.workload == p.name;
    run.budget_s = args.seconds * (primary ? kPrimaryShare : (1.0 - kPrimaryShare) / 2.0);
    try {
      const PathOutcome out = p.fn(run, report);
      rss_json += std::string(rss_json.empty() ? "" : ", ") + json_string(p.name) + ": " +
                  json_number(peak_rss_mb());
      setup_s += median(out.setup_samples_s);
      if (!setup_json.empty()) setup_json += ", ";
      setup_json += json_string(p.name) + ": [";
      for (std::size_t i = 0; i < out.setup_samples_s.size(); ++i) {
        setup_json += (i ? ", " : "") + json_number(out.setup_samples_s[i]);
      }
      setup_json += "]";
    } catch (const std::exception& e) {
      report.fail(std::string(p.name) + " threw: " + e.what());
    }
  }
  report.detail("setup_s_samples", "{" + setup_json + "}");
  report.detail("peak_rss_mb_after", "{" + rss_json + "}");

  if (args.trace == 0) {
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    if (!args.trace_out.empty() && !write_spans(args.trace_out, SpanLog::global().all())) {
      std::fprintf(stderr, "perfbench: could not write spans to %s\n", args.trace_out.c_str());
    }
  }
  report.print_detail();
  report.print_result();
  return report.failed() == 0 ? 0 : 1;
}
