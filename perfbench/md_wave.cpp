// md_wave: ML-potential MD through the serving stack. Sixteen LiPS
// trajectories on a 4x1x1 supercell advance in lockstep waves; a
// two-member EnergyForceTask committee serves the forces target with
// cache bypass through ServedForceBackend. The loop is closed: each
// wave waits for its forces. The window is run as back-to-back episodes
// of the same seeded trajectories, so every episode must end on
// bit-identical coordinates.

#include <cstring>

#include "decorators.hpp"
#include "materials/lips.hpp"
#include "models/egnn.hpp"
#include "paths.hpp"
#include "serve/frontend/frontend.hpp"
#include "sim/sim.hpp"
#include "tasks/energy_force.hpp"

namespace perfbench {
namespace {

using namespace matsci;
namespace fe = matsci::serve::frontend;

constexpr std::int64_t kTrajectories = 16;
constexpr std::int64_t kEpisodeWaves = 50;
constexpr std::int64_t kHidden = 16;
constexpr std::int64_t kLayers = 2;
constexpr std::int64_t kHeadHidden = 16;
constexpr std::int64_t kHeadBlocks = 2;

std::shared_ptr<tasks::EnergyForceTask> make_member(std::uint64_t seed) {
  core::RngEngine rng(seed);
  models::EGNNConfig ecfg;
  ecfg.hidden_dim = kHidden;
  ecfg.pos_hidden = kHidden / 2;
  ecfg.num_layers = kLayers;
  models::OutputHeadConfig hcfg;
  hcfg.hidden_dim = kHeadHidden;
  hcfg.num_blocks = kHeadBlocks;
  hcfg.dropout = 0.0f;
  return std::make_shared<tasks::EnergyForceTask>(
      std::make_shared<models::EGNN>(ecfg, rng), "energy", hcfg, rng,
      data::TargetStats{0.0f, 1.0f});
}

serve::SchedulerOptions member_scheduler() {
  serve::SchedulerOptions opts;
  opts.max_batch_size = kTrajectories;
  opts.max_wait_us = 1500;
  opts.num_workers = 1;
  return opts;
}

struct MdSystem {
  materials::Structure cell;
  std::uint64_t traj_seed = 0;
  std::vector<std::unique_ptr<TaskCounters>> counters;
  std::unique_ptr<fe::ServeFrontend> frontend;
  std::shared_ptr<sim::ForceBackend> backend;
};

materials::MDOptions md_options() {
  materials::MDOptions opts;
  opts.timestep = 0.25;
  opts.temperature = 50.0;
  opts.steps = 1'000'000;  // never finishes inside a window
  opts.snapshot_every = opts.steps;
  opts.thermostat_every = 0;
  return opts;
}

std::vector<std::shared_ptr<materials::MDSimulator>> make_trajectories(
    const MdSystem& sys) {
  std::vector<std::shared_ptr<materials::MDSimulator>> out;
  for (std::int64_t t = 0; t < kTrajectories; ++t) {
    out.push_back(std::make_shared<materials::MDSimulator>(
        sys.cell, md_options(), sys.traj_seed + static_cast<std::uint64_t>(t)));
  }
  return out;
}

struct Episode {
  std::vector<double> wave_us;
  std::int64_t frames = 0;
  double occupancy_sum = 0.0;
  bool finite = true;
  std::vector<core::Vec3> final_frac;  ///< concatenated, trajectory order
};

Episode run_episode(MdSystem& sys, std::int64_t waves) {
  Episode ep;
  sim::TrajectoryScheduler sched(make_trajectories(sys), sys.backend);
  sched.set_frame_hook([&](std::int64_t, std::int64_t,
                           const materials::Structure&, const sim::ForceEval& ev) {
    ++ep.frames;
    ep.occupancy_sum += ev.mean_batch_size;
    if (!std::isfinite(ev.energy)) ep.finite = false;
  });
  for (std::int64_t w = 0; w < waves; ++w) {
    ScopedSpan span("sim.wave");
    const auto t0 = Clock::now();
    sched.step_wave();
    ep.wave_us.push_back(seconds_since(t0) * 1e6);
  }
  for (const auto& traj : sched.trajectories()) {
    const auto& frac = traj->structure().frac;
    ep.final_frac.insert(ep.final_frac.end(), frac.begin(), frac.end());
  }
  return ep;
}

void build_system(MdSystem& sys, std::uint64_t seed, bool decorate) {
  sys.backend.reset();
  sys.frontend.reset();
  sys.counters.clear();
  sys.cell = materials::LiPSDataset::initial_structure().supercell(4, 1, 1);
  sys.traj_seed = seed * 1000 + 1;
  sys.frontend = std::make_unique<fe::ServeFrontend>();
  sim::ServedPotentialOptions popts;  // forces target, cache bypass (defaults)
  for (std::uint64_t m = 0; m < 2; ++m) {
    const std::string name = "pot/" + std::to_string(m);
    std::shared_ptr<tasks::Task> task = make_member(31 + m);
    sys.counters.push_back(std::make_unique<TaskCounters>());
    if (decorate) task = std::make_shared<TimedTask>(task, *sys.counters.back());
    serve::InferenceSessionOptions sopts;
    sopts.collate.radius.cutoff = 4.5;
    sys.frontend->deploy(name, 1,
                         std::make_shared<serve::InferenceSession>(task, sopts),
                         member_scheduler());
    popts.members.push_back(name);
  }
  sys.backend = std::make_shared<sim::ServedForceBackend>(*sys.frontend, popts);
  if (decorate) sys.backend = std::make_shared<TimedForceBackend>(sys.backend);
  (void)run_episode(sys, 3);  // warm-up
}

bool same_coords(const std::vector<core::Vec3>& a, const std::vector<core::Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(core::Vec3)) == 0;
}

/// Episodes until the budget is spent, at least two. Checks frame loss,
/// finiteness and episode-to-episode bit-identity.
std::vector<Episode> run_window(MdSystem& sys, double budget_s, Report& report) {
  std::vector<Episode> eps;
  const auto t0 = Clock::now();
  while (eps.size() < 2 || seconds_since(t0) < budget_s) {
    eps.push_back(run_episode(sys, kEpisodeWaves));
    const Episode& ep = eps.back();
    report.attempt(kEpisodeWaves);
    if (ep.frames != kEpisodeWaves * kTrajectories) {
      report.fail("md_wave lost " +
                  std::to_string(kEpisodeWaves * kTrajectories - ep.frames) + " frames");
    }
    if (!ep.finite) report.fail("md_wave produced a non-finite energy");
    if (!same_coords(ep.final_frac, eps.front().final_frac)) {
      report.fail("md_wave episode " + std::to_string(eps.size() - 1) +
                  " final coordinates differ from episode 0");
    }
  }
  return eps;
}

struct WindowStats {
  std::vector<double> wave_us;
  std::vector<double> episode_frames_per_s;
  double total_us = 0.0;
  std::int64_t frames = 0;
  double occupancy = 0.0;
};

WindowStats pool_episodes(const std::vector<Episode>& eps) {
  WindowStats w;
  double occ = 0.0;
  for (const Episode& ep : eps) {
    w.wave_us.insert(w.wave_us.end(), ep.wave_us.begin(), ep.wave_us.end());
    double ep_us = 0.0;
    for (double us : ep.wave_us) ep_us += us;
    w.episode_frames_per_s.push_back(static_cast<double>(ep.frames) / (ep_us / 1e6));
    w.frames += ep.frames;
    occ += ep.occupancy_sum;
  }
  for (double us : w.wave_us) w.total_us += us;
  w.occupancy = w.frames > 0 ? occ / static_cast<double>(w.frames) : 0.0;
  return w;
}

/// Self times of every span called `name`.
std::vector<double> self_times(const std::vector<Span>& spans, const char* name) {
  const std::vector<double> self = span_self_us(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) out.push_back(self[i]);
  }
  return out;
}

}  // namespace

PathOutcome run_md_wave(const PathRun& run, Report& report) {
  PathOutcome outcome;
  MdSystem sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    build_system(sys, run.seed, run.trace);
    outcome.setup_samples_s.push_back(seconds_since(t0));
  }

  if (!run.trace) {
    // Each figure is the median over episodes of the episode's own
    // figure, so one episode slowed by a host stall does not move it.
    const std::vector<Episode> eps = run_window(sys, run.budget_s, report);
    const WindowStats w = pool_episodes(eps);
    std::vector<double> p50, p90;
    for (const Episode& ep : eps) {
      const Quantiles q = summarize(ep.wave_us);
      p50.push_back(q.p50);
      p90.push_back(q.p90);
    }
    report.set("frames_per_s", median(w.episode_frames_per_s), "1/s");
    report.set("wave_p50_ms", median(p50) / 1e3, "ms");
    report.set("wave_p90_ms", median(p90) / 1e3, "ms");
    report.detail("md_wave.waves", std::to_string(w.wave_us.size()));
    report.detail("md_wave.episodes", std::to_string(eps.size()));
    report.detail("md_wave.batch_occupancy", json_number(w.occupancy));
  } else {
    SpanLog& log = SpanLog::global();
    log.set_enabled(false);
    const WindowStats ref = pool_episodes(run_window(sys, 0.4 * run.budget_s, report));
    log.retire();
    for (auto& c : sys.counters) c->clear();
    log.set_enabled(true);
    PoolWatch pool;
    const WindowStats w = pool_episodes(run_window(sys, 0.6 * run.budget_s, report));
    log.set_enabled(false);
    pool.sample();
    pool.report(report);
    const std::vector<Span> spans = log.collect();
    log.retire();

    auto agg = aggregate_spans(spans);
    const double waves = static_cast<double>(w.wave_us.size());
    const SpanAggregate& wave = agg["sim.wave"];
    const SpanAggregate& eval = agg["sim.force_eval"];
    double forward_us = 0.0, flops = 0.0;
    std::int64_t calls = 0;
    for (const auto& c : sys.counters) {
      std::lock_guard<std::mutex> lock(c->mu);
      forward_us += c->total_us();
      calls += static_cast<std::int64_t>(c->call_us.size());
      // Forward plus the input-gradient backward (counted as twice the
      // forward) per member call.
      flops += 3.0 * egnn_forward_flops(kHidden, kHidden / 2, kLayers, kHeadHidden,
                                        kHeadBlocks, 1, static_cast<double>(c->nodes),
                                        static_cast<double>(c->edges),
                                        static_cast<double>(c->graphs()));
    }
    report.set("tasks.forces_us_per_frame", forward_us / static_cast<double>(w.frames), "us");
    report.set("sim.force_eval_us.p50", quantile(eval.durations_us, 0.5), "us");
    report.set("sim.integrate_us.p50", quantile(self_times(spans, "sim.wave"), 0.5), "us");
    report.set("serve.overhead_us.p50",
               quantile(self_times(spans, "sim.force_eval"), 0.5), "us");
    report.set("sim.batch_occupancy", w.occupancy, "count");
    report.set("kernels.gflop_per_op.md_wave",
               calls > 0 ? flops / 1e9 / static_cast<double>(calls) : 0.0, "GFLOP");
    report.set("kernels.gflops_per_s.md_wave",
               forward_us > 0.0 ? flops / 1e3 / forward_us : 0.0, "GFLOP/s");

    const std::vector<LedgerRow> rows = {
        {"sim.integrate", wave.self_us / waves},
        {"serve.overhead", eval.self_us / waves},
        {"tasks.forces (member forwards, wall)", (eval.total_us - eval.self_us) / waves},
    };
    const double ref_wave = ref.total_us / static_cast<double>(ref.wave_us.size());
    report.set("ledger.closure_err.md_wave",
               print_ledger("md_wave", "wave", rows, ref_wave), "share");
    report.set("trace.overhead_share.md_wave",
               (w.total_us / waves - ref_wave) / ref_wave, "share");
    report.detail("md_wave.traced_waves", std::to_string(w.wave_us.size()));
  }
  sys.backend.reset();
  sys.frontend.reset();
  return outcome;
}

}  // namespace perfbench
