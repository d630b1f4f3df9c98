// Exact latency recording for the repo benchmark.
//
// Every timed operation lands in a per-thread log-linear histogram:
// values below 128 ns get one bucket each, and every power of two
// above that splits into 128 equal sub-buckets, so a reported value is
// within 0.4% of the true sample (the bucket midpoint) across
// [0, 2^41) ns. Recording is one array increment — no sampling, no
// reservoir — and merging per-thread histograms is a bucket-wise sum,
// so a percentile of the merged histogram is the percentile of every
// sample the run produced, weighted exactly by how many each thread
// recorded.
//
// Percentiles follow the benchmark's reporting rule: a percentile is
// reported only when at least kMinBeyond samples lie above its rank
// (a p99 needs >= 1000 samples), and every printed percentile carries
// its sample count.

#ifndef LSTORE_PERFBENCH_LAT_HIST_H_
#define LSTORE_PERFBENCH_LAT_HIST_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace lstore {
namespace perfbench {

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr uint64_t kSub = 1ull << kSubBits;  ///< sub-buckets/octave
  static constexpr unsigned kMaxExp = 40;  ///< top octave [2^40, 2^41)
  static constexpr size_t kBuckets = kSub + (kMaxExp - kSubBits + 1) * kSub;
  /// Samples that must lie above a percentile's rank for it to count.
  static constexpr uint64_t kMinBeyond = 10;

  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void Record(uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
  }

  /// Exact merge: bucket-wise sum.
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  uint64_t count() const { return count_; }

  /// 1-based rank of quantile q in [0, 1]: ceil(q * count), at least 1.
  uint64_t Rank(double q) const {
    auto r = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
    return r == 0 ? 1 : (r > count_ ? count_ : r);
  }

  /// Samples strictly above the rank of q.
  uint64_t Beyond(double q) const { return count_ == 0 ? 0 : count_ - Rank(q); }

  /// True when q is reportable: at least kMinBeyond samples beyond it.
  bool Supports(double q) const { return Beyond(q) >= kMinBeyond; }

  /// Value (bucket midpoint) of the sample at quantile q; 0 when empty.
  uint64_t ValueAt(double q) const {
    if (count_ == 0) return 0;
    const uint64_t rank = Rank(q);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return Midpoint(i);
    }
    return Midpoint(kBuckets - 1);
  }

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    unsigned b = static_cast<unsigned>(std::bit_width(v)) - 1;  // >= kSubBits
    if (b > kMaxExp) return kBuckets - 1;
    uint64_t sub = (v >> (b - kSubBits)) - kSub;  // [0, kSub)
    return static_cast<size_t>(kSub + (b - kSubBits) * kSub + sub);
  }

  static uint64_t LowerBound(size_t i) {
    if (i < kSub) return i;
    unsigned b = static_cast<unsigned>((i - kSub) / kSub) + kSubBits;
    uint64_t sub = (i - kSub) % kSub;
    return (1ull << b) + (sub << (b - kSubBits));
  }

  static uint64_t Midpoint(size_t i) {
    if (i < kSub) return i;
    unsigned b = static_cast<unsigned>((i - kSub) / kSub) + kSubBits;
    uint64_t width = 1ull << (b - kSubBits);
    return LowerBound(i) + (width - 1) / 2;
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

}  // namespace perfbench
}  // namespace lstore

#endif  // LSTORE_PERFBENCH_LAT_HIST_H_
