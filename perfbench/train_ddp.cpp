// train_ddp: the paper's symmetry pretraining (section 4.2) under
// DDPTrainer at world size 2 with the default bucketed identity
// allreduce: point-group classification over fully connected point
// clouds (at most 20 points), AdamW, batch 32 per rank. Each fit is one
// epoch from the same seed, so every fit must reproduce the first fit's
// loss bit for bit.
//
// The traced run replays the trainer's step from public functions
// (run_ranks, DataLoader::batch, Task::step, Tensor::backward under a
// GradReadyHookGuard on BucketAllreduce, finish_step, Optimizer::step)
// with spans around each call; its loss must equal DDPTrainer's and its
// untraced step time must agree with DDPTrainer's within train.replay_err.

#include <cstring>

#include "comm/coll/bucket_allreduce.hpp"
#include "core/autograd.hpp"
#include "data/dataloader.hpp"
#include "decorators.hpp"
#include "models/egnn.hpp"
#include "optim/adam.hpp"
#include "paths.hpp"
#include "sym/point_group.hpp"
#include "sym/synthetic_dataset.hpp"
#include "tasks/classification.hpp"
#include "train/ddp.hpp"

namespace perfbench {
namespace {

using namespace matsci;

constexpr std::int64_t kWorld = 2;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kDatasetSize = 512;  // 8 steps per fit
// The point clouds are fixed and the run seed only orders and shards
// them: step time depends on the data (backward time differs by ~1.6x
// between point-cloud draws), and a per-seed draw of 512 clouds would
// make that dominate the run-to-run spread.
constexpr std::uint64_t kDatasetSeed = 0x5157;
constexpr std::int64_t kHidden = 32;
constexpr std::int64_t kLayers = 3;
constexpr std::int64_t kHeadBlocks = 2;

struct TrainSystem {
  std::shared_ptr<const sym::SyntheticPointGroupDataset> dataset;
  std::uint64_t seed = 0;  ///< shuffle order and shards
};

/// One rank's context. With `counters`, task, optimizer and dataset are
/// wrapped in the timing decorators (the dataset wrapper is handed back
/// through `timed_dataset`, which must outlive the loader).
train::RankContext make_rank(const TrainSystem& sys, std::int64_t rank,
                             std::int64_t world, TaskCounters* counters,
                             std::unique_ptr<TimedDataset>* timed_dataset) {
  core::RngEngine rng(40);  // fixed model
  models::EGNNConfig ecfg;
  ecfg.hidden_dim = kHidden;
  ecfg.pos_hidden = kHidden / 2;
  ecfg.num_layers = kLayers;
  models::OutputHeadConfig hcfg;
  hcfg.hidden_dim = kHidden;
  hcfg.num_blocks = kHeadBlocks;
  hcfg.dropout = 0.0f;
  auto task = std::make_unique<tasks::ClassificationTask>(
      std::make_shared<models::EGNN>(ecfg, rng), "point_group",
      sym::num_point_groups(), hcfg, rng);
  optim::AdamOptions aopts;  // AdamW, as optim::make_adamw(params, 3e-3)
  aopts.lr = 3e-3;
  aopts.weight_decay = 1e-2;
  aopts.decoupled_weight_decay = true;
  auto adamw = std::make_unique<optim::Adam>(task->parameters(), aopts);

  data::DataLoaderOptions lo;
  lo.batch_size = kBatch;
  lo.seed = sys.seed;  // the run seed picks shuffle order and shards
  lo.rank = rank;
  lo.world_size = world;
  lo.collate.representation = data::Representation::kPointCloud;
  const data::StructureDataset* ds = sys.dataset.get();

  train::RankContext ctx;
  if (counters != nullptr) {
    *timed_dataset = std::make_unique<TimedDataset>(*sys.dataset);
    ds = timed_dataset->get();
    ctx.task = std::make_unique<TimedTask>(std::shared_ptr<tasks::Task>(std::move(task)),
                                           *counters);
    ctx.optimizer = std::make_unique<TimedOptimizer>(std::move(adamw));
  } else {
    ctx.task = std::move(task);
    ctx.optimizer = std::move(adamw);
  }
  ctx.train_loader = std::make_unique<data::DataLoader>(*ds, lo);
  return ctx;
}

struct FitResult {
  double wall_s = 0.0;
  double samples = 0.0;
  std::int64_t steps = 0;
  double loss = 0.0;
};

FitResult trainer_fit(const TrainSystem& sys) {
  train::DDPOptions opts;
  opts.world_size = kWorld;
  opts.max_epochs = 1;
  const train::DDPResult r = train::DDPTrainer().fit(
      [&](std::int64_t rank, std::int64_t world) {
        return make_rank(sys, rank, world, nullptr, nullptr);
      },
      opts);
  FitResult f;
  f.wall_s = r.wall_seconds;
  f.samples = r.total_samples;
  f.steps = r.total_steps;
  f.loss = r.epochs.empty() ? std::nan("") : r.epochs.front().train.at("loss");
  return f;
}

struct ReplayResult {
  FitResult fit;
  std::vector<comm::coll::StepStats> steps;  ///< rank 0
  TaskCounters counters;           ///< rank 0
};

/// DDPTrainer's step, replayed from public calls with spans on rank 0.
void replay_fit(const TrainSystem& sys, ReplayResult& out) {
  const auto t0 = Clock::now();
  double all_samples = 0.0, loss_mean = 0.0;
  std::int64_t steps = 0;
  std::vector<std::unique_ptr<TaskCounters>> counters;
  for (std::int64_t r = 0; r < kWorld; ++r) counters.push_back(std::make_unique<TaskCounters>());
  comm::run_ranks(kWorld, [&](comm::Communicator& comm) {
    const std::int64_t rank = comm.rank();
    SpanLog::mute_this_thread(rank != 0);
    std::unique_ptr<TimedDataset> timed_ds;
    train::RankContext ctx = make_rank(sys, rank, comm.world_size(),
                                       counters[static_cast<std::size_t>(rank)].get(),
                                       &timed_ds);
    std::vector<core::Tensor> params = ctx.task->parameters();
    for (core::Tensor& p : params) comm.broadcast(p.span(), 0);
    comm::coll::BucketAllreduce engine(comm, params, comm::coll::CollOptions{});
    const core::GradReadyHook launch = engine.hook();
    const core::GradReadyHook timed_launch =
        [&launch](const std::shared_ptr<core::TensorImpl>& leaf) {
          ScopedSpan span("comm.launch");
          launch(leaf);
        };

    ctx.task->train(true);
    ctx.train_loader->set_epoch(0);
    const std::int64_t nb = static_cast<std::int64_t>(-comm.allreduce_scalar_max(
        -static_cast<double>(ctx.train_loader->num_batches())));
    tasks::MetricAccumulator acc;
    double local_samples = 0.0;
    for (std::int64_t b = 0; b < nb; ++b) {
      ScopedSpan step("train.step");
      data::Batch batch;
      {
        ScopedSpan span("data.batch");
        batch = ctx.train_loader->batch(b);
      }
      ctx.optimizer->zero_grad();
      tasks::TaskOutput loss = ctx.task->step(batch);
      engine.begin_step();
      {
        core::GradReadyHookGuard guard(timed_launch);
        ScopedSpan span("core.backward");
        loss.loss.backward();
      }
      acc.add(loss);
      local_samples += static_cast<double>(batch.num_graphs());
      comm::coll::StepStats st;
      {
        ScopedSpan span("comm.finish_step");
        st = engine.finish_step();
      }
      ctx.optimizer->step();
      if (rank == 0) out.steps.push_back(st);
    }
    const double lm = comm.allreduce_scalar_sum(acc.has("loss") ? acc.mean("loss") : 0.0) /
                      static_cast<double>(comm.world_size());
    const double samples = comm.allreduce_scalar_sum(local_samples);
    if (rank == 0) {
      loss_mean = lm;
      all_samples = samples;
      steps = nb;
    }
    SpanLog::mute_this_thread(false);
  });
  out.fit.wall_s = seconds_since(t0);
  out.fit.samples = all_samples;
  out.fit.steps = steps;
  out.fit.loss = loss_mean;
  TaskCounters& c0 = *counters.front();
  std::lock_guard<std::mutex> lock(c0.mu);
  out.counters.call_us.insert(out.counters.call_us.end(), c0.call_us.begin(), c0.call_us.end());
  out.counters.call_graphs.insert(out.counters.call_graphs.end(), c0.call_graphs.begin(),
                                  c0.call_graphs.end());
  out.counters.nodes += c0.nodes;
  out.counters.edges += c0.edges;
}

void build_system(TrainSystem& sys, std::uint64_t seed) {
  sym::SyntheticPointGroupOptions opts;
  opts.max_points = 20;
  sys.seed = seed;
  sys.dataset = std::make_shared<sym::SyntheticPointGroupDataset>(
      kDatasetSize, kDatasetSeed, opts);
  // Warm-up: a two-step fit of the same model (first-touch
  // allocations, pool buffers).
  TrainSystem warm;
  warm.seed = seed;
  warm.dataset = std::make_shared<sym::SyntheticPointGroupDataset>(
      2 * kWorld * kBatch, kDatasetSeed + 1, opts);
  (void)trainer_fit(warm);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void check_loss(const FitResult& f, const FitResult& first, const char* what,
                Report& report) {
  report.attempt(f.steps);
  if (!std::isfinite(f.loss)) {
    report.fail(std::string("train_ddp ") + what + ": non-finite loss");
  } else if (!same_bits(f.loss, first.loss)) {
    report.fail(std::string("train_ddp ") + what + ": loss " + json_number(f.loss) +
                " differs from the first fit's " + json_number(first.loss));
  }
}

/// DDPTrainer fits until the budget is spent, in pairs: both fits of a
/// pair train on one shuffle order (derived from the run seed and the
/// pair index) and must agree bit for bit. Step time depends on the
/// order (it steers the weights, and with them the arithmetic), so a
/// run averages over several orders.
std::vector<FitResult> trainer_window(const TrainSystem& sys, double budget_s,
                                      Report& report) {
  std::vector<FitResult> fits;
  const auto t0 = Clock::now();
  for (std::uint64_t pair = 0; fits.size() < 4 || seconds_since(t0) < budget_s; ++pair) {
    TrainSystem order = sys;
    order.seed = sys.seed * 1000003ull + pair;
    const FitResult first = trainer_fit(order);
    check_loss(first, first, "DDPTrainer", report);
    fits.push_back(first);
    fits.push_back(trainer_fit(order));
    check_loss(fits.back(), first, "DDPTrainer repeat", report);
  }
  return fits;
}

double step_seconds(const std::vector<FitResult>& fits) {
  double wall = 0.0;
  std::int64_t steps = 0;
  for (const FitResult& f : fits) {
    wall += f.wall_s;
    steps += f.steps;
  }
  return wall / static_cast<double>(steps);
}

}  // namespace

PathOutcome run_train_ddp(const PathRun& run, Report& report) {
  PathOutcome outcome;
  TrainSystem sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    build_system(sys, run.seed);
    outcome.setup_samples_s.push_back(seconds_since(t0));
  }

  if (!run.trace) {
    const std::vector<FitResult> fits = trainer_window(sys, run.budget_s, report);
    double samples = 0.0, wall = 0.0;
    for (const FitResult& f : fits) {
      samples += f.samples;
      wall += f.wall_s;
    }
    report.set("samples_per_s", samples / wall, "1/s");
    report.detail("train_ddp.fits", std::to_string(fits.size()));
    report.detail("train_ddp.steps_per_fit", std::to_string(fits.front().steps));
    return outcome;
  }

  SpanLog& log = SpanLog::global();
  log.set_enabled(false);
  // One shuffle order throughout, so every replay must reproduce the
  // DDPTrainer loss bit for bit.
  std::vector<FitResult> ref;
  {
    const auto t0 = Clock::now();
    while (ref.size() < 2 || seconds_since(t0) < 0.3 * run.budget_s) {
      ref.push_back(trainer_fit(sys));
      check_loss(ref.back(), ref.front(), "DDPTrainer repeat", report);
    }
  }
  const double ref_step_s = step_seconds(ref);

  // Untraced replay: same program?
  std::vector<FitResult> untraced;
  {
    const auto t0 = Clock::now();
    while (untraced.size() < 2 || seconds_since(t0) < 0.3 * run.budget_s) {
      ReplayResult rr;
      replay_fit(sys, rr);
      untraced.push_back(rr.fit);
      check_loss(rr.fit, ref.front(), "replay vs DDPTrainer", report);
    }
  }
  const double replay_step_s = step_seconds(untraced);

  log.retire();
  log.set_enabled(true);
  PoolWatch pool;
  ReplayResult traced;
  std::vector<FitResult> traced_fits;
  {
    const auto t0 = Clock::now();
    while (traced_fits.size() < 2 || seconds_since(t0) < 0.4 * run.budget_s) {
      replay_fit(sys, traced);
      traced_fits.push_back(traced.fit);
      check_loss(traced.fit, ref.front(), "traced replay vs DDPTrainer", report);
      pool.sample();
    }
  }
  log.set_enabled(false);
  pool.report(report);
  const std::vector<Span> spans = log.collect();
  log.retire();

  auto agg = aggregate_spans(spans);
  const double nsteps = static_cast<double>(traced.steps.size());
  auto mean_total = [&](const char* name) { return agg[name].total_us / nsteps; };
  auto mean_self = [&](const char* name) { return agg[name].self_us / nsteps; };
  double wait = 0.0, overlap = 0.0, bytes = 0.0;
  for (const comm::coll::StepStats& s : traced.steps) {
    wait += s.exposed_wait_us;
    overlap += s.overlap_fraction;
    bytes += static_cast<double>(s.bytes);
  }
  report.set("data.batch_us", mean_total("data.batch"), "us");
  report.set("tasks.step_us", mean_total("tasks.step"), "us");
  report.set("core.backward_us", mean_self("core.backward"), "us");
  report.set("optim.step_us", mean_total("optim.step"), "us");
  report.set("comm.wait_us", wait / nsteps, "us");
  report.set("comm.overlap_fraction", overlap / nsteps, "share");
  report.set("comm.bytes_per_step", bytes / nsteps, "B");
  // Forward plus backward (counted as twice the forward).
  const double flops =
      3.0 * egnn_forward_flops(kHidden, kHidden / 2, kLayers, kHidden, kHeadBlocks,
                               sym::num_point_groups(),
                               static_cast<double>(traced.counters.nodes),
                               static_cast<double>(traced.counters.edges),
                               static_cast<double>(traced.counters.graphs()));
  const double compute_us = agg["tasks.step"].total_us + agg["core.backward"].total_us;
  report.set("kernels.gflop_per_op.train_ddp", flops / 1e9 / nsteps, "GFLOP");
  report.set("kernels.gflops_per_s.train_ddp", flops / 1e3 / compute_us, "GFLOP/s");

  const double traced_step_us = step_seconds(traced_fits) * 1e6;
  const std::vector<LedgerRow> rows = {
      {"data.get", mean_self("data.get")},
      {"data.batch (collate)", mean_self("data.batch")},
      {"tasks.step (forward)", mean_self("tasks.step")},
      {"core.backward", mean_self("core.backward")},
      {"comm.launch", mean_self("comm.launch")},
      {"comm.finish_step", mean_self("comm.finish_step")},
      {"optim.step", mean_self("optim.step")},
      {"train.step (rest)", mean_self("train.step")},
      {"fit (rank launch, broadcast)", traced_step_us - mean_total("train.step")},
  };
  report.set("ledger.closure_err.train_ddp",
             print_ledger("train_ddp (rank 0)", "step", rows, ref_step_s * 1e6), "share");
  report.set("trace.overhead_share.train_ddp",
             (traced_step_us / 1e6 - replay_step_s) / replay_step_s, "share");
  report.set("train.replay_err", std::fabs(replay_step_s - ref_step_s) / ref_step_s, "share");
  report.detail("train_ddp.traced_steps", json_number(nsteps));
  return outcome;
}

}  // namespace perfbench
