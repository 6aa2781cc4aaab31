#include "decorators.hpp"

namespace perfbench {

void TaskCounters::add(double us, const matsci::data::Batch& b) {
  std::lock_guard<std::mutex> lock(mu);
  call_us.push_back(us);
  call_graphs.push_back(b.num_graphs());
  nodes += b.num_nodes();
  edges += b.topology.num_edges();
}

void TaskCounters::clear() {
  std::lock_guard<std::mutex> lock(mu);
  call_us.clear();
  call_graphs.clear();
  nodes = 0;
  edges = 0;
}

double TaskCounters::total_us() const {
  double s = 0.0;
  for (double us : call_us) s += us;
  return s;
}

std::int64_t TaskCounters::graphs() const {
  std::int64_t g = 0;
  for (std::int64_t n : call_graphs) g += n;
  return g;
}

double TaskCounters::graph_weighted_us() const {
  double s = 0.0;
  for (std::size_t i = 0; i < call_us.size(); ++i) {
    s += call_us[i] * static_cast<double>(call_graphs[i]);
  }
  return s;
}

TimedTask::TimedTask(std::shared_ptr<matsci::tasks::Task> inner,
                     TaskCounters& counters)
    : inner_(register_module("inner", std::move(inner))), counters_(&counters) {}

matsci::tasks::TaskOutput TimedTask::step(
    const matsci::data::Batch& batch) const {
  ScopedSpan span("tasks.step");
  matsci::tasks::TaskOutput out = inner_->step(batch);
  if (span.active()) {
    counters_->add(static_cast<double>(span.elapsed_ns()) / 1e3, batch);
  }
  return out;
}

std::vector<matsci::tasks::Prediction> TimedTask::predict_batch(
    const matsci::data::Batch& batch, const std::string& target_key) const {
  ScopedSpan span("tasks.predict_batch");
  std::vector<matsci::tasks::Prediction> out =
      inner_->predict_batch(batch, target_key);
  if (span.active()) {
    counters_->add(static_cast<double>(span.elapsed_ns()) / 1e3, batch);
  }
  return out;
}

std::vector<matsci::sim::ForceEval> TimedForceBackend::evaluate(
    const std::vector<const matsci::materials::Structure*>& wave,
    const MidWaveHook& mid) {
  ScopedSpan span("sim.force_eval");
  if (!span.active()) return inner_->evaluate(wave, mid);
  SpanLog& log = SpanLog::global();
  const std::uint32_t saved = log.ambient_parent();
  log.set_ambient_parent(span.id());
  std::vector<matsci::sim::ForceEval> out = inner_->evaluate(wave, mid);
  log.set_ambient_parent(saved);
  return out;
}

matsci::data::StructureSample TimedDataset::get(std::int64_t index) const {
  ScopedSpan span("data.get");
  return inner_->get(index);
}

void TimedOptimizer::step() {
  ScopedSpan span("optim.step");
  inner_->step();
  ++step_count_;
}

}  // namespace perfbench
