#include "paths.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/memory/pool.hpp"

namespace perfbench {

PoolWatch::PoolWatch()
    : fresh_before_(matsci::core::memory::BufferPool::global().stats().fresh_allocs) {
  sample();
}

void PoolWatch::sample() {
  const matsci::core::memory::PoolStats ps =
      matsci::core::memory::BufferPool::global().stats();
  peak_mb_ = std::max(
      peak_mb_, static_cast<double>(ps.bytes_outstanding + ps.bytes_cached) / (1024.0 * 1024.0));
}

void PoolWatch::report(Report& report) const {
  const std::uint64_t fresh =
      matsci::core::memory::BufferPool::global().stats().fresh_allocs - fresh_before_;
  report.add("memory.fresh_allocs", static_cast<double>(fresh), "count");
  report.max("memory.pool_peak_mb", peak_mb_, "MB");
}

double egnn_forward_flops(std::int64_t hidden, std::int64_t pos_hidden,
                          std::int64_t layers, std::int64_t head_hidden,
                          std::int64_t head_blocks, std::int64_t head_out,
                          double nodes, double edges, double graphs) {
  // Two FLOPs per multiply-add of every Linear layer; gathers, scatters,
  // activations and norms are not counted.
  const double h = static_cast<double>(hidden);
  const double p = static_cast<double>(pos_hidden);
  double flops = 0.0;
  for (std::int64_t l = 0; l < layers; ++l) {
    flops += edges * 2.0 * ((2.0 * h + 1.0) * h + h * h);  // edge MLP
    if (l + 1 < layers) flops += edges * 2.0 * (h * p + p);  // coordinate MLP
    flops += nodes * 2.0 * (2.0 * h * h + h * h);           // node MLP
  }
  const double hh = static_cast<double>(head_hidden);
  flops += graphs * 2.0 *
           (h * hh + static_cast<double>(head_blocks) * hh * hh +
            hh * static_cast<double>(head_out));
  return flops;
}

double print_ledger(const std::string& path, const std::string& unit,
                    const std::vector<LedgerRow>& rows, double reference_us) {
  double sum = 0.0;
  for (const LedgerRow& r : rows) sum += r.us_per_unit;
  const double err = reference_us > 0.0 ? std::fabs(sum - reference_us) / reference_us : 0.0;
  std::printf("\nper-layer self time: %s, per %s\n", path.c_str(), unit.c_str());
  std::printf("  %-40s %12s %8s\n", "layer", "self_us", "share");
  for (const LedgerRow& r : rows) {
    std::printf("  %-40s %12.2f %7.1f%%\n", r.layer.c_str(), r.us_per_unit,
                sum > 0.0 ? 100.0 * r.us_per_unit / sum : 0.0);
  }
  std::printf("  %-40s %12.2f\n", "sum of layers (traced)", sum);
  std::printf("  %-40s %12.2f\n", "end to end (untraced)", reference_us);
  std::printf("  %-40s %11.2f%%\n", "ledger.closure_err", 100.0 * err);
  return err;
}

}  // namespace perfbench
