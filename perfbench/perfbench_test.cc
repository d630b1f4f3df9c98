// Unit tests of the benchmark's own measuring pieces: percentiles and
// the samples-beyond rule, registry window subtraction, self-time
// attribution, the Poisson schedule, and lateness accounting.

#include <gtest/gtest.h>

#include <cstring>

#include "common.h"
#include "lat_hist.h"
#include "loadgen.h"
#include "window.h"

namespace lstore {
namespace perfbench {
namespace {

TEST(LatencyHistogram, PercentileIsWithinBucketPrecision) {
  LatencyHistogram h;
  for (uint64_t us = 1; us <= 1000; ++us) h.Record(us * 1000);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.ValueAt(0.50), 500'000.0, 500'000.0 / 128);
  EXPECT_NEAR(h.ValueAt(0.99), 990'000.0, 990'000.0 / 128);
  EXPECT_NEAR(h.ValueAt(1.0), 1'000'000.0, 1'000'000.0 / 128);
  // Small values are exact.
  LatencyHistogram s;
  s.Record(7);
  EXPECT_EQ(s.ValueAt(0.5), 7u);
}

TEST(LatencyHistogram, BucketsCoverEveryValueWithBoundedWidth) {
  Random rng(3);
  for (int i = 0; i < 100000; ++i) {
    uint64_t v = rng.Next() >> (rng.Uniform(60) + 4);
    size_t idx = LatencyHistogram::Index(v);
    ASSERT_LE(LatencyHistogram::LowerBound(idx), v);
    if (idx + 1 < LatencyHistogram::kBuckets) {
      ASSERT_LT(v, LatencyHistogram::LowerBound(idx + 1));
      double width = static_cast<double>(LatencyHistogram::LowerBound(idx + 1) -
                                         LatencyHistogram::LowerBound(idx));
      ASSERT_LE(width, std::max(1.0, v / 128.0));
    }
  }
}

TEST(LatencyHistogram, SamplesBeyondRule) {
  LatencyHistogram h;
  for (int i = 0; i < 999; ++i) h.Record(1000 + i);
  EXPECT_EQ(h.Beyond(0.99), 9u);  // rank ceil(989.01) = 990
  EXPECT_FALSE(h.Supports(0.99));
  h.Record(5000);
  EXPECT_EQ(h.Beyond(0.99), 10u);  // rank 990 of 1000
  EXPECT_TRUE(h.Supports(0.99));
  EXPECT_TRUE(h.Supports(0.50));
  LatencyHistogram empty;
  EXPECT_FALSE(empty.Supports(0.5));
  EXPECT_EQ(empty.ValueAt(0.5), 0u);
}

TEST(LatencyHistogram, MergeIsExactAcrossUnevenThreads) {
  LatencyHistogram a, b, all;
  for (int i = 0; i < 100000; ++i) {  // a fast thread with many samples
    a.Record(1000);
    all.Record(1000);
  }
  for (int i = 0; i < 2000; ++i) {  // a slow thread with few
    b.Record(900'000);
    all.Record(900'000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (double q : {0.5, 0.9, 0.98, 0.99, 0.999}) {
    EXPECT_EQ(a.ValueAt(q), all.ValueAt(q)) << q;
  }
  // 2000 of 102000 samples are slow: p99 must land on them.
  EXPECT_NEAR(a.ValueAt(0.99), 900'000.0, 900'000.0 / 128);
}

TEST(RegistryWindow, HistogramSubtractsBucketByBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lstore_test_ns");
  Counter* c = reg.GetCounter("lstore_test_total");
  for (int i = 0; i < 1000; ++i) h->Record(10);  // before the window
  c->Add(7);
  RegistryWindow w;
  w.before = reg.Snapshot();
  Histogram only_window;
  for (int i = 0; i < 100; ++i) {
    h->Record(100000);
    only_window.Record(100000);
  }
  c->Add(5);
  w.after = reg.Snapshot();
  HistogramSnapshot d = w.Histogram("lstore_test_ns");
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.Percentile(0.5), only_window.Snapshot().Percentile(0.5));
  EXPECT_EQ(w.Quantile("lstore_test_ns", 0.5, 1.0),
            InterpolatedQuantile(only_window.Snapshot(), 0.5));
  EXPECT_EQ(w.Counter("lstore_test_total"), 5u);
  // A metric created inside the window counts from zero; an absent one
  // reads as empty.
  reg.GetHistogram("lstore_late_ns")->Record(42);
  w.after = reg.Snapshot();
  EXPECT_EQ(w.Histogram("lstore_late_ns").count, 1u);
  EXPECT_EQ(w.Histogram("lstore_absent_ns").count, 0u);
}

TEST(RegistryWindow, QuantilesInterpolateInsideTheBucket) {
  Histogram h;
  // 100 recordings of 1000: bucket [896, 1023] (4 sub-buckets/octave).
  for (int i = 0; i < 100; ++i) h.Record(1000);
  HistogramSnapshot s = h.Snapshot();
  const unsigned b = Histogram::BucketIndex(1000);
  const double lo = Histogram::BucketUpperBound(b - 1) + 1.0;
  const double hi = Histogram::BucketUpperBound(b);
  EXPECT_DOUBLE_EQ(InterpolatedQuantile(s, 0.5), lo + 0.5 * (hi - lo));
  EXPECT_DOUBLE_EQ(InterpolatedQuantile(s, 1.0), hi);
  EXPECT_LE(InterpolatedQuantile(s, 0.5), static_cast<double>(s.Percentile(0.5)));
  EXPECT_EQ(InterpolatedQuantile(HistogramSnapshot{}, 0.5), 0.0);
}

TraceSpan Span(uint64_t id, const char* name, uint64_t t0, uint64_t dur,
               uint64_t tid = 1) {
  TraceSpan s;
  s.trace_id = id;
  s.name = name;
  s.t0_ns = t0;
  s.dur_ns = dur;
  s.tid = tid;
  return s;
}

TEST(StageBreakdown, SelfTimeOfNestedSpansSumsToTheRoot) {
  // request [0,100us): table.update [10,40), txn.commit [40,90) which
  // holds commit_fsync [50,80) recorded on another thread.
  std::vector<TraceSpan> spans = {
      Span(5, "request", 0, 100'000),
      Span(5, "table.update", 10'000, 30'000),
      Span(5, "txn.commit", 40'000, 50'000),
      Span(5, "commit_fsync", 50'000, 30'000, 2),
  };
  bench::StageBreakdown b = bench::ComputeStageBreakdown(spans, 5, 6);
  ASSERT_EQ(b.traces, 1u);
  EXPECT_DOUBLE_EQ(b.e2e_us, 100.0);
  EXPECT_DOUBLE_EQ(b.stage_us["other"], 20.0);
  EXPECT_DOUBLE_EQ(b.stage_us["table.update"], 30.0);
  EXPECT_DOUBLE_EQ(b.stage_us["txn.commit"], 20.0);
  EXPECT_DOUBLE_EQ(b.stage_us["commit_fsync"], 30.0);
  double sum = 0;
  for (const auto& [name, us] : b.stage_us) sum += us;
  EXPECT_DOUBLE_EQ(sum, b.e2e_us);
}

TEST(StageBreakdown, UsesTheTracesAroundTheP99) {
  // 200 traces: root durations 1..200 us, each with one child of half.
  std::vector<TraceSpan> spans;
  for (uint64_t i = 1; i <= 200; ++i) {
    spans.push_back(Span(i, "request", i * 1'000'000, i * 1000));
    spans.push_back(Span(i, "table.update", i * 1'000'000, i * 500));
  }
  bench::StageBreakdown b = bench::ComputeStageBreakdown(spans, 1, 201);
  EXPECT_EQ(b.traces, 200u);
  // rank floor(0.99 * 199) = 197 -> window ranks 195..199 = 196..200 us.
  EXPECT_DOUBLE_EQ(b.e2e_us, 198.0);
  EXPECT_DOUBLE_EQ(b.stage_us["table.update"], 99.0);
  EXPECT_DOUBLE_EQ(b.stage_us["other"], 99.0);
  // Traces outside [lo, hi) are ignored.
  EXPECT_EQ(bench::ComputeStageBreakdown(spans, 1, 11).traces, 10u);
}

TEST(StageBreakdown, ServerSpansAreClippedToTheClientRoot) {
  // Over the wire: the client root [0,100us) holds loadgen.late
  // [0,5); the server's own request span [10,104) — its reply write
  // returns after the client read the reply — holds queue_wait
  // [12,60) and reply [95,104). Harvests deliver the root last.
  std::vector<TraceSpan> spans = {
      Span(9, "request", 10'000, 94'000, 2),
      Span(9, "queue_wait", 12'000, 48'000, 3),
      Span(9, "reply", 95'000, 9'000, 3),
      Span(9, "loadgen.late", 0, 5'000),
      Span(9, "request", 0, 100'000),
  };
  // Unclipped, the server span has no parent and is counted twice.
  bench::StageBreakdown raw = bench::ComputeStageBreakdown(spans, 9, 10);
  double raw_sum = 0;
  for (const auto& [name, us] : raw.stage_us) raw_sum += us;
  EXPECT_GT(raw_sum, raw.e2e_us);

  std::vector<TraceSpan> clipped = ClipToRoots(spans);
  ASSERT_EQ(clipped.size(), 5u);
  EXPECT_STREQ(clipped[0].name, "request");  // the client root leads
  EXPECT_EQ(clipped[0].t0_ns, 0u);
  bench::StageBreakdown b = bench::ComputeStageBreakdown(clipped, 9, 10);
  EXPECT_DOUBLE_EQ(b.e2e_us, 100.0);
  EXPECT_DOUBLE_EQ(b.stage_us["other"], 5.0);        // 100 - 5 - 90
  EXPECT_DOUBLE_EQ(b.stage_us["loadgen.late"], 5.0);
  EXPECT_DOUBLE_EQ(b.stage_us["request"], 37.0);     // 90 - 48 - 5
  EXPECT_DOUBLE_EQ(b.stage_us["queue_wait"], 48.0);
  EXPECT_DOUBLE_EQ(b.stage_us["reply"], 5.0);        // clipped at 100
  double sum = 0;
  for (const auto& [name, us] : b.stage_us) sum += us;
  EXPECT_DOUBLE_EQ(sum, b.e2e_us);

  // A trace whose root was lost is dropped whole.
  EXPECT_TRUE(ClipToRoots({Span(4, "queue_wait", 0, 10)}).empty());
}

TEST(Loadgen, PoissonScheduleIsFixedBySeed) {
  const uint64_t horizon = 2'000'000'000;  // 2 s
  auto a = PoissonSchedule(5000, horizon, 20, 100000, 0.99, 42);
  auto b = PoissonSchedule(5000, horizon, 20, 100000, 0.99, 42);
  auto c = PoissonSchedule(5000, horizon, 20, 100000, 0.99, 43);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].at_ns, b[i].at_ns);
    ASSERT_EQ(a[i].update, b[i].update);
    ASSERT_EQ(a[i].key, b[i].key);
    ASSERT_EQ(a[i].value, b[i].value);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_ns != c[i].at_ns;
  }
  EXPECT_TRUE(differs);
  // ~10000 arrivals, increasing, inside the horizon, ~20% updates.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
  size_t updates = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      ASSERT_GE(a[i].at_ns, a[i - 1].at_ns);
    }
    ASSERT_LT(a[i].at_ns, horizon);
    ASSERT_LT(a[i].key, 100000u);
    updates += a[i].update ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(updates) / a.size(), 0.20, 0.02);
}

TEST(Loadgen, LatenessAccounting) {
  EXPECT_EQ(LateNs(1000, 900), 0u);  // early counts as on time
  EXPECT_EQ(LateNs(1000, 1000), 0u);
  EXPECT_EQ(LateNs(1000, 1500), 500u);

  LatencyHistogram late;
  for (int i = 0; i < 1000; ++i) late.Record(LateNs(0, 5'000));
  for (int i = 0; i < 5; ++i) late.Record(LateNs(0, 5'000'000));
  EXPECT_TRUE(OnSchedule(late, 1'000'000));  // 5 stalls sit past p99
  for (int i = 0; i < 20; ++i) late.Record(LateNs(0, 5'000'000));
  EXPECT_FALSE(OnSchedule(late, 1'000'000));  // now the p99 is a stall
  LatencyHistogram few;
  few.Record(0);
  EXPECT_FALSE(OnSchedule(few, 1'000'000));  // p99 not reportable
}

TEST(ThreadStats, RatesCountByCompletionLatenciesByIssue) {
  Window win(4.0, false);  // two 2 s slices
  win.t0_ns = 1'000'000'000;
  const uint64_t s0 = win.t0_ns, s1 = s0 + win.slice_ns;
  ThreadStats st;
  // Issued in slice 0, answered in slice 1 (a server that fell behind).
  st.RecordLatency(win, kUpdate, s0 + 10, s1 + 5 - (s0 + 10));
  st.CountDone(win, kUpdate, s0 + 10, s1 + 5, 0);
  // Issued in the warm-up, answered in slice 0: a rate, not a latency.
  st.CountDone(win, kRead, s0 + 1, s0 + 1, 1);
  // Answered after the window: a latency, not a rate.
  st.RecordLatency(win, kRead, s1 + 1, win.slice_ns);
  st.CountDone(win, kRead, s1 + win.slice_ns + 1, s1 + win.slice_ns + 1, 1);
  // A scan's rows spread over the slices it ran in; its share after the
  // window is dropped.
  st.CountDone(win, kScan, s0 + win.slice_ns / 2, s1 + win.slice_ns, 300);

  ASSERT_EQ(st.slices.size(), 2u);
  EXPECT_EQ(st.slices[0].ops, 1u);
  EXPECT_EQ(st.slices[1].ops, 1u);
  EXPECT_EQ(st.slices[0].update.count(), 1u);
  EXPECT_EQ(st.slices[1].update.count(), 0u);
  EXPECT_EQ(st.done[kRead] + st.done[kUpdate], 2u);
  EXPECT_DOUBLE_EQ(st.slices[0].rows, 1 + 100);
  EXPECT_DOUBLE_EQ(st.slices[1].rows, 200);
  EXPECT_EQ(st.lat[kRead].count(), 1u);
}

TEST(Rows, WrongStatusSparesConflictsAndBusy) {
  EXPECT_FALSE(WrongStatus(Status::OK()));
  EXPECT_FALSE(WrongStatus(Status::Aborted("conflict")));
  EXPECT_FALSE(WrongStatus(Status::Busy("queue full")));
  EXPECT_TRUE(WrongStatus(Status::NotFound("no such key")));
  EXPECT_TRUE(WrongStatus(Status::Corruption("bad page")));
}

TEST(Rows, InvariantHoldsForEveryDraw) {
  std::vector<Value> row;
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    FillRow(i, rng.Next(), &row);
    ASSERT_TRUE(RowOk(row));
    ASSERT_EQ(row[0], static_cast<Value>(i));
  }
  row[1] += 1;
  EXPECT_FALSE(RowOk(row));
}

}  // namespace
}  // namespace perfbench
}  // namespace lstore
