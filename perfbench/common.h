// Shared pieces of the repo benchmark's workloads: run options, the
// row invariant every workload checks, per-thread accounting, the
// measurement-window controller, and the report every workload fills.

#ifndef LSTORE_PERFBENCH_COMMON_H_
#define LSTORE_PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "lat_hist.h"
#include "obs/flight_recorder.h"
#include "window.h"
#include "workload_driver.h"

namespace lstore {
namespace perfbench {

using bench::NowNs;

// --- data and its invariant -------------------------------------------------

/// Every row keeps c1 + c2 == kRowSum: the preload and inserts write
/// rows that satisfy it, updates rewrite both columns in one version.
/// A point read checks it on its row, a scan pair on the whole table.
inline constexpr Value kRowSum = 1'000'000'000ull;
inline constexpr uint32_t kColumns = 5;  ///< c0 = key, c1..c4
inline constexpr ColumnMask kPairMask = (1ull << 1) | (1ull << 2);
inline constexpr ColumnMask kAllMask = (1ull << kColumns) - 1;
inline constexpr const char* kTable = "usertable";
/// Preloaded rows: every workload runs on a 1,000,000-row table.
inline constexpr uint64_t kRows = 1'000'000;

/// A full row for `key` whose (c1, c2) pair comes from `draw`.
inline void FillRow(Value key, uint64_t draw, std::vector<Value>* row) {
  row->assign(kColumns, 0);
  Value c1 = draw % (kRowSum + 1);
  (*row)[0] = key;
  (*row)[1] = c1;
  (*row)[2] = kRowSum - c1;
  (*row)[3] = key * 3;
  (*row)[4] = draw >> 40;
}

inline bool RowOk(const std::vector<Value>& row) {
  return row.size() > 2 && row[1] + row[2] == kRowSum;
}

// --- options ------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;    ///< measured window
  bool trace = false;     ///< per-layer (traced) run instead of e2e
  std::string dir;        ///< scratch directory for database files
};

/// Set-ups per run (setup_s is their median) and the warm-up before
/// measuring.
inline constexpr uint32_t kSetups = 3;
inline constexpr double kWarmupSeconds = 1.0;

// --- the measurement window ---------------------------------------------------

/// Shared between the controller and the workers.
struct Window {
  std::atomic<int> phase{bench::kWarmup};
  /// Trace mode alternates traced and plain halves of 0.5 s so that
  /// trace.overhead_ratio compares like with like as the table grows.
  std::atomic<bool> traced{false};
  bool trace_mode = false;
  /// The window splits into equal slices of about kSliceSeconds; the
  /// end-to-end rates and latencies are medians over slices, so a
  /// disturbance shorter than half the window cannot move them.
  static constexpr double kSliceSeconds = 2.0;
  std::atomic<uint64_t> t0_ns{0};  ///< window start (set by RunWindow)
  uint64_t slice_ns = 0;
  uint32_t slices = 1;

  Window(double seconds, bool trace) : trace_mode(trace) {
    slices = static_cast<uint32_t>(
        std::max(1.0, std::round(seconds / kSliceSeconds)));
    slice_ns = static_cast<uint64_t>(seconds * 1e9 / slices);
  }

  /// Slice of an event at `at_ns`, or -1 outside the window.
  int SliceOf(uint64_t at_ns) const {
    uint64_t t0 = t0_ns.load(std::memory_order_acquire);
    if (t0 == 0 || at_ns < t0) return -1;
    uint64_t i = (at_ns - t0) / slice_ns;
    return i < slices ? static_cast<int>(i) : -1;
  }

  bool measuring() const {
    return phase.load(std::memory_order_acquire) == bench::kMeasure;
  }
  bool stopped() const {
    return phase.load(std::memory_order_acquire) == bench::kStop;
  }
  bool tracing() const {
    return trace_mode && traced.load(std::memory_order_relaxed);
  }
};

// --- per-thread accounting ------------------------------------------------------

enum Kind : uint32_t { kRead = 0, kUpdate, kInsert, kScan, kNumKinds };

/// One slice's share of the end-to-end metrics.
struct Slice {
  LatencyHistogram update;
  uint64_t ops = 0;  ///< completed point ops
  double rows = 0;   ///< rows returned to readers, pro-rated by run time
};

/// One worker's counts; merged exactly after the threads join.
struct ThreadStats {
  LatencyHistogram lat[kNumKinds];  ///< e2e latency, measured ops only
  uint64_t done[kNumKinds] = {};    ///< ops completed inside the window
  uint64_t attempted = 0;  ///< measured ops issued
  uint64_t failed = 0;     ///< measured ops that did not complete correctly
  /// Wrong results (any phase): a broken invariant, or an error other
  /// than a conflict abort or Busy — every key a workload touches
  /// exists, so NotFound is wrong too.
  uint64_t wrong = 0;
  uint64_t errors = 0;     ///< unexpected statuses (any phase)
  std::string first_error;  ///< the first unexpected status, for the report
  uint64_t ww_aborts = 0;      ///< Update() conflicts, retried
  uint64_t commit_aborts = 0;  ///< Commit() aborts, retried
  uint64_t busy = 0;           ///< server Busy rejections
  uint64_t inserts_committed = 0;  ///< any phase (end-of-run Count check)
  uint64_t ops_traced_win = 0;  ///< trace mode: ops done in traced halves
  uint64_t ops_plain_win = 0;   ///< trace mode: ops done in plain halves
  // Bench-timed calls into each layer (trace mode, traced halves only).
  LatencyHistogram call_read, call_update, call_insert, call_commit, call_sum;
  LatencyHistogram late;  ///< open-loop sender lateness
  std::vector<Slice> slices;

  /// Record the latency of one correct op of kind `k` issued inside
  /// the window at `start_ns`, in the slice it was issued in.
  void RecordLatency(const Window& win, Kind k, uint64_t start_ns,
                     uint64_t lat_ns) {
    lat[k].Record(lat_ns);
    int i = win.SliceOf(start_ns);
    if (i < 0 || k != kUpdate) return;
    if (slices.size() < win.slices) slices.resize(win.slices);
    slices[i].update.Record(lat_ns);
  }

  /// Count one correct op of kind `k` that ran over [start_ns,
  /// done_ns] and returned `rows` rows. The op counts towards the rate
  /// in the slice it completed in; its rows are spread over the slices
  /// it ran in, so a scan pair of 2M rows adds to every slice it spans
  /// instead of landing whole in one. What falls outside the window
  /// does not count.
  void CountDone(const Window& win, Kind k, uint64_t start_ns,
                 uint64_t done_ns, uint64_t rows) {
    const uint64_t t0 = win.t0_ns.load(std::memory_order_acquire);
    if (t0 == 0) return;
    if (slices.size() < win.slices) slices.resize(win.slices);
    const int i = win.SliceOf(done_ns);
    if (i >= 0) {
      ++done[k];
      if (k != kScan) ++slices[i].ops;
    }
    if (done_ns <= start_ns) {
      if (i >= 0) slices[i].rows += rows;
      return;
    }
    for (uint32_t j = 0; j < win.slices && rows > 0; ++j) {
      const uint64_t a = std::max(start_ns, t0 + j * win.slice_ns);
      const uint64_t b = std::min(done_ns, t0 + (j + 1) * win.slice_ns);
      if (b > a) {
        slices[j].rows += static_cast<double>(rows) * (b - a) /
                          static_cast<double>(done_ns - start_ns);
      }
    }
  }

  void Merge(const ThreadStats& o) {
    if (slices.size() < o.slices.size()) slices.resize(o.slices.size());
    for (size_t i = 0; i < o.slices.size(); ++i) {
      slices[i].update.Merge(o.slices[i].update);
      slices[i].ops += o.slices[i].ops;
      slices[i].rows += o.slices[i].rows;
    }
    for (uint32_t k = 0; k < kNumKinds; ++k) {
      lat[k].Merge(o.lat[k]);
      done[k] += o.done[k];
    }
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    errors += o.errors;
    if (first_error.empty()) first_error = o.first_error;
    ww_aborts += o.ww_aborts;
    commit_aborts += o.commit_aborts;
    busy += o.busy;
    inserts_committed += o.inserts_committed;
    ops_traced_win += o.ops_traced_win;
    ops_plain_win += o.ops_plain_win;
    call_read.Merge(o.call_read);
    call_update.Merge(o.call_update);
    call_insert.Merge(o.call_insert);
    call_commit.Merge(o.call_commit);
    call_sum.Merge(o.call_sum);
    late.Merge(o.late);
  }
};

/// Count an unexpected status.
inline void NoteError(const char* op, const Status& s, ThreadStats* st) {
  ++st->errors;
  if (st->first_error.empty()) st->first_error = op + (": " + s.ToString());
}

/// Whether an op's final status is a wrong result: anything but OK, a
/// conflict abort (out of retries) or Busy, since every key exists.
inline bool WrongStatus(const Status& s) {
  return !s.ok() && !s.IsAborted() && !s.IsBusy();
}

/// Run `f`; when `h` is set record its duration there, and when
/// `trace_id` is set record it as span `name` (a static literal).
template <typename F>
inline Status Timed(LatencyHistogram* h, uint64_t trace_id, const char* name,
                    F&& f) {
  if (h == nullptr && trace_id == 0) return f();
  uint64_t t0 = NowNs();
  Status s = f();
  uint64_t d = NowNs() - t0;
  if (h != nullptr) h->Record(d);
  RecordSpan(trace_id, name, t0, d);
  return s;
}

/// Retry bounds for an operation that keeps aborting on conflicts: a
/// conflicting writer holds its latch until it commits, and may be
/// descheduled meanwhile, so in-process retries are bounded by time.
inline constexpr uint64_t kRetryBudgetNs = 1'000'000'000;
inline constexpr uint32_t kMaxAttempts = 1000;  ///< wire resends

/// Every stage the p99 breakdown reports (stage.<name>.self_p99_us):
/// "other" is the traced root's own time, the bench spans come from
/// this benchmark's calls into each layer, the rest are the engine's
/// and server's existing spans; "request" is the server's own request
/// span. A span name not listed here is folded into "unlisted", so the
/// stages always sum to the traced e2e p99.
inline constexpr const char* kStages[] = {
    "other",      "table.update", "txn.commit", "gc_queue_wait",
    "log_append", "log_flush",    "commit_fsync", "loadgen.late",
    "decode",     "queue_wait",   "execute",    "reply",
    "request",    "unlisted"};

/// Prepare harvested spans for bench::ComputeStageBreakdown: order
/// them by start (longest first on ties, so each trace's root
/// "request" span is the first one of that name), and clip every other
/// span of a trace to its root's interval. A server span may end after
/// the client already holds the reply; left unclipped it would have no
/// enclosing parent and be counted beside the root.
std::vector<TraceSpan> ClipToRoots(std::vector<TraceSpan> spans);

/// What the controller observed over the window.
struct Measured {
  double secs = 0;
  double slice_secs = 1;
  double traced_secs = 0, plain_secs = 0;
  RegistryWindow reg;
  TableCounts table;  ///< TableStats deltas
  BufferPoolStats buf_before, buf_after;
  std::vector<TraceSpan> spans;  ///< harvested over the window (trace mode)
  uint64_t trace_lo = 0, trace_hi = 0;
};

/// Drive the window from the calling thread while workers run: wait
/// until `start_ns`, snapshot the registry and TableStats, flip to
/// measuring, and hold for `seconds` — toggling the traced half and
/// harvesting flight-recorder spans every 100 ms in trace mode, since
/// the per-thread rings overwrite themselves within a second — then
/// flip to stop and snapshot again, then run `join` (the caller's
/// thread joins) and harvest the spans the last ops recorded.
///
/// (bench::RunPoint drives the same warm-up/measure/stop phases but
/// offers no hook at the window edges, which the registry deltas and
/// the span harvest need.)
Measured RunWindow(Window* win, Database* db, Table* table, uint64_t start_ns,
                   double seconds, const std::function<void()>& join);

// --- the report ------------------------------------------------------------------

/// Every metric a run computed, by catalogue name, plus what the human
/// report prints beside them and why a run is invalid.
struct Report {
  std::map<std::string, double> values;
  std::vector<std::string> lines;    ///< extra human-readable lines
  std::vector<std::string> invalid;  ///< reasons; empty = valid
  uint64_t attempted = 0, failed = 0, wrong = 0;
  uint64_t errors = 0;  ///< unexpected statuses; any makes the run incorrect

  void Set(const std::string& name, double v) { values[name] = v; }
  void Line(const std::string& s) { lines.push_back(s); }
  void Invalid(const std::string& why) { invalid.push_back(why); }
  /// Guard: a run whose background work did not run measured the
  /// wrong regime; record the guard either way.
  void Guard(bool ok, const std::string& what) {
    Line(std::string("guard ") + (ok ? "ok    " : "FAILED") + "  " + what);
    if (!ok) Invalid(what);
  }
  /// Set `name` to percentile q (in units of `div` ns) of `h`, and
  /// print it with its sample count. An unsupported percentile (fewer
  /// than 10 samples beyond it) is not reported: the value stays 0 and
  /// the run is invalid when `required`.
  void Percentile(const std::string& name, const LatencyHistogram& h, double q,
                  double div, const char* unit, bool required);
};

/// Engine set-up: open + create + preload + drain the merge queue.
struct Engine {
  std::unique_ptr<Database> db;
  Table* table = nullptr;
};

/// Set up kSetups times from an empty directory, keeping the last
/// engine; setup_s is the median of the set-up times. With
/// `update_all`, set-up also updates (c1, c2) of every row once, so the
/// first-update pre-images (each a base read) are taken before
/// measuring rather than during it.
Engine SetUp(const Options& opts, const DurabilityOptions& dur,
             const TableConfig& tcfg, bool update_all, Report* r);

/// Metrics every workload derives the same way: e2e latencies and
/// rates from the merged thread stats, window deltas of the registry,
/// TableStats and buffer pool, bench-timed layer calls, the p99 stage
/// breakdown, and the trace overhead.
void ReportCommon(const Options& opts, const ThreadStats& st,
                  const Measured& m, Table* table, Report* r);

/// End-of-run checks on a quiesced table: the visible row count equals
/// `expected_rows`, and one scan pair at a single snapshot keeps the
/// invariant across every row.
void CheckTable(Table* table, uint64_t expected_rows, const char* when,
                Report* r);

/// Σ (RangeTailLength − RangeTps): tail records not yet merged.
uint64_t TailBacklog(Table* table);

/// Per-workload runners.
Report RunOltpZipf(const Options& opts);
Report RunHtapCold(const Options& opts);
Report RunServeDurable(const Options& opts);

}  // namespace perfbench
}  // namespace lstore

#endif  // LSTORE_PERFBENCH_COMMON_H_
