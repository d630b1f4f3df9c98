// Measurement-window views of the engine's own counters.
//
// The engine's registry (src/obs/metrics.h) and TableStats count from
// Open: a total read after a run includes the preload, its insert
// merges and everything the warm-up did. The benchmark snapshots both
// at the instant measuring starts and again when it stops, and reports
// only the difference: counters subtract, histograms subtract bucket by
// bucket and take percentiles of the difference.

#ifndef LSTORE_PERFBENCH_WINDOW_H_
#define LSTORE_PERFBENCH_WINDOW_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "core/table.h"
#include "obs/metrics.h"

namespace lstore {
namespace perfbench {

/// Bucket-wise `after - before` (before may be null: metric created
/// inside the window). Count is re-derived from the difference, so the
/// obs library's Percentile() applies unchanged.
inline HistogramSnapshot SubtractHistogram(const HistogramSnapshot& after,
                                           const HistogramSnapshot* before) {
  HistogramSnapshot d = after;
  d.count = 0;
  d.max_bound = 0;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    uint64_t b = before != nullptr && i < before->buckets.size()
                     ? before->buckets[i]
                     : 0;
    d.buckets[i] = d.buckets[i] >= b ? d.buckets[i] - b : 0;
    d.count += d.buckets[i];
    if (d.buckets[i] != 0) d.max_bound = d.upper_bounds[i];
  }
  d.sum = before != nullptr && after.sum >= before->sum ? after.sum - before->sum
                                                        : after.sum;
  return d;
}

/// Quantile q of a histogram, interpolated linearly inside the bucket
/// that holds the q-th recording (as Prometheus' histogram_quantile
/// does). HistogramSnapshot::Percentile returns that bucket's upper
/// bound — up to 25% high, and the same few values run after run.
inline double InterpolatedQuantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  double want = std::ceil(q * static_cast<double>(h.count));
  if (want < 1) want = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    if (static_cast<double>(seen + h.buckets[i]) >= want) {
      double lo =
          i == 0 ? 0.0 : static_cast<double>(h.upper_bounds[i - 1]) + 1;
      double hi = static_cast<double>(h.upper_bounds[i]);
      double frac = (want - static_cast<double>(seen)) /
                    static_cast<double>(h.buckets[i]);
      return lo + frac * (hi - lo);
    }
    seen += h.buckets[i];
  }
  return static_cast<double>(h.max_bound);
}

/// Plain copy of the TableStats atomics at one instant.
struct TableCounts {
  uint64_t updates = 0, inserts = 0, reads = 0, ww_aborts = 0, merges = 0,
           tail_chain_hops = 0;

  static TableCounts Of(const TableStats& s) {
    TableCounts c;
    c.updates = s.updates.load(std::memory_order_relaxed);
    c.inserts = s.inserts.load(std::memory_order_relaxed);
    c.reads = s.reads.load(std::memory_order_relaxed);
    c.ww_aborts = s.ww_aborts.load(std::memory_order_relaxed);
    c.merges = s.merges.load(std::memory_order_relaxed);
    c.tail_chain_hops = s.tail_chain_hops.load(std::memory_order_relaxed);
    return c;
  }

  TableCounts Minus(const TableCounts& o) const {
    TableCounts d;
    d.updates = updates - o.updates;
    d.inserts = inserts - o.inserts;
    d.reads = reads - o.reads;
    d.ww_aborts = ww_aborts - o.ww_aborts;
    d.merges = merges - o.merges;
    d.tail_chain_hops = tail_chain_hops - o.tail_chain_hops;
    return d;
  }
};

/// Registry snapshots taken at the two edges of the measurement window.
struct RegistryWindow {
  MetricsSnapshot before, after;

  uint64_t Counter(const std::string& name) const {
    uint64_t a = after.CounterValue(name), b = before.CounterValue(name);
    return a >= b ? a - b : 0;
  }

  HistogramSnapshot Histogram(const std::string& name) const {
    const auto* a = after.FindHistogram(name);
    if (a == nullptr) return HistogramSnapshot{};
    const auto* b = before.FindHistogram(name);
    return SubtractHistogram(a->hist, b != nullptr ? &b->hist : nullptr);
  }

  /// Interpolated quantile q of a window histogram scaled by 1/div
  /// (ns -> us: 1e3); 0 when nothing was recorded inside the window.
  double Quantile(const std::string& name, double q, double div) const {
    return InterpolatedQuantile(Histogram(name), q) / div;
  }
};

}  // namespace perfbench
}  // namespace lstore

#endif  // LSTORE_PERFBENCH_WINDOW_H_
