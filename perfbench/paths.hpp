#pragma once

// The three measured paths. Each builds its own system (timed as
// set-up), computes its correctness references outside every timed
// phase, measures for its share of the run, checks its outputs and
// tears everything down before returning, so no path's serving workers
// hold pool slots while another path measures.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct PathRun {
  std::uint64_t seed = 0;
  /// Seconds this path measures for (its share of --seconds).
  double budget_s = 1.0;
  /// Traced run: split the budget into an untraced reference phase and
  /// a traced phase, and report per-layer metrics instead of end-to-end.
  bool trace = false;
};

/// Set-ups per path and run; the median is reported.
inline constexpr int kSetupReps = 3;

/// Per-path result beside the metrics and checks recorded into the
/// shared report: the time of each set-up.
struct PathOutcome {
  std::vector<double> setup_samples_s;
};

PathOutcome run_serve_cold(const PathRun& run, Report& report);
PathOutcome run_md_wave(const PathRun& run, Report& report);
PathOutcome run_train_ddp(const PathRun& run, Report& report);

/// Tensor-pool watch over a traced phase: fresh heap allocations since
/// construction and the pool footprint (lent plus cached bytes) at the
/// sample points. report() adds both into the per-layer metrics.
class PoolWatch {
 public:
  PoolWatch();
  void sample();
  void report(Report& report) const;

 private:
  std::uint64_t fresh_before_ = 0;
  double peak_mb_ = 0.0;
};

/// Computed linear-layer FLOPs of one EGNN + output-head forward over a
/// batch with the given node, edge and graph counts.
double egnn_forward_flops(std::int64_t hidden, std::int64_t pos_hidden,
                          std::int64_t layers, std::int64_t head_hidden,
                          std::int64_t head_blocks, std::int64_t head_out,
                          double nodes, double edges, double graphs);

/// Per-layer self-time table of one path, printed in traced runs.
struct LedgerRow {
  std::string layer;
  double us_per_unit = 0.0;
};
/// Prints the table and returns the closure error
/// |Σ rows − reference| / reference.
double print_ledger(const std::string& path, const std::string& unit,
                    const std::vector<LedgerRow>& rows, double reference_us);

}  // namespace perfbench
