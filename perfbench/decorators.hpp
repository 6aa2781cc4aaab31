#pragma once

// Timing decorators over the library's public virtual interfaces. Each
// forwards to the wrapped object and records one span per call plus the
// work counts the per-layer metrics divide by. Used only in traced runs;
// untraced runs hand the library its own objects.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/sample.hpp"
#include "harness.hpp"
#include "optim/optimizer.hpp"
#include "sim/force_backend.hpp"
#include "tasks/task.hpp"

namespace perfbench {

/// Work counted by a TimedTask: calls, graphs, nodes and edges seen, and
/// the per-call durations (µs) together with each call's graph count.
struct TaskCounters {
  std::mutex mu;
  std::vector<double> call_us;
  std::vector<std::int64_t> call_graphs;
  std::int64_t nodes = 0;
  std::int64_t edges = 0;

  void add(double us, const matsci::data::Batch& b);
  void clear();
  double total_us() const;
  std::int64_t graphs() const;
  /// Σ graphs·duration: a call's time as experienced by every graph in
  /// it (what a served request waits for its batch's forward).
  double graph_weighted_us() const;
};

/// tasks::Task decorator. The wrapped task is registered as the only
/// child module, so parameters() (and train/eval) walk exactly the
/// wrapped task's tree in the same order.
class TimedTask : public matsci::tasks::Task {
 public:
  TimedTask(std::shared_ptr<matsci::tasks::Task> inner, TaskCounters& counters);

  matsci::tasks::TaskOutput step(const matsci::data::Batch& batch) const override;
  std::shared_ptr<matsci::models::Encoder> encoder() const override {
    return inner_->encoder();
  }
  std::vector<matsci::tasks::Prediction> predict_batch(
      const matsci::data::Batch& batch,
      const std::string& target_key) const override;

 private:
  std::shared_ptr<matsci::tasks::Task> inner_;
  TaskCounters* counters_;
};

/// sim::ForceBackend decorator: one "sim.force_eval" span per wave,
/// installed as the ambient parent so the serve workers' member forwards
/// during the evaluation nest under it.
class TimedForceBackend : public matsci::sim::ForceBackend {
 public:
  explicit TimedForceBackend(std::shared_ptr<matsci::sim::ForceBackend> inner)
      : inner_(std::move(inner)) {}

  std::vector<matsci::sim::ForceEval> evaluate(
      const std::vector<const matsci::materials::Structure*>& wave,
      const MidWaveHook& mid = {}) override;

 private:
  std::shared_ptr<matsci::sim::ForceBackend> inner_;
};

/// data::StructureDataset decorator: one "data.get" span per sample.
class TimedDataset : public matsci::data::StructureDataset {
 public:
  explicit TimedDataset(const matsci::data::StructureDataset& inner)
      : inner_(&inner) {}

  std::int64_t size() const override { return inner_->size(); }
  matsci::data::StructureSample get(std::int64_t index) const override;
  std::string name() const override { return inner_->name(); }

 private:
  const matsci::data::StructureDataset* inner_;
};

/// optim::Optimizer decorator over the same parameter list: step()
/// forwards under an "optim.step" span. zero_grad/grad_norm act on the
/// shared parameters directly, exactly as the wrapped optimizer would.
class TimedOptimizer : public matsci::optim::Optimizer {
 public:
  explicit TimedOptimizer(std::unique_ptr<matsci::optim::Optimizer> inner)
      : Optimizer(inner->params(), inner->lr()), inner_(std::move(inner)) {}

  void step() override;

 private:
  std::unique_ptr<matsci::optim::Optimizer> inner_;
};

}  // namespace perfbench
