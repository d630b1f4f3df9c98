#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/query.h"
#include "loadgen.h"
#include "obs/span.h"

namespace lstore {
namespace perfbench {

namespace {

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Copy every retained span minted inside the window (id >= lo) that
/// an earlier harvest has not already taken.
void Harvest(uint64_t lo, std::unordered_set<uint64_t>* seen,
             std::vector<TraceSpan>* out) {
  for (const TraceSpan& s : FlightRecorder::Instance().Snapshot()) {
    if (s.trace_id < lo) continue;
    uint64_t key = s.trace_id * 0x9e3779b97f4a7c15ull ^ s.t0_ns * 31 ^
                   s.tid * 0xbf58476d1ce4e5b9ull ^
                   reinterpret_cast<uintptr_t>(s.name);
    if (seen->insert(key).second) out->push_back(s);
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

std::vector<TraceSpan> ClipToRoots(std::vector<TraceSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns
                                        : a.dur_ns > b.dur_ns;
            });
  std::unordered_map<uint64_t, const TraceSpan*> roots;
  for (const TraceSpan& s : spans) {
    if (std::strcmp(s.name, "request") == 0) roots.emplace(s.trace_id, &s);
  }
  std::vector<TraceSpan> out;
  out.reserve(spans.size());
  for (const TraceSpan& s : spans) {
    auto it = roots.find(s.trace_id);
    if (it == roots.end()) continue;  // root lost: the trace is incomplete
    const TraceSpan& root = *it->second;
    uint64_t t0 = std::max(s.t0_ns, root.t0_ns);
    uint64_t t1 = std::min(s.end_ns(), root.end_ns());
    if (t1 < t0) continue;  // wholly outside the request
    TraceSpan c = s;
    c.t0_ns = t0;
    c.dur_ns = t1 - t0;
    out.push_back(c);
  }
  return out;
}

Measured RunWindow(Window* win, Database* db, Table* table, uint64_t start_ns,
                   double seconds, const std::function<void()>& join) {
  Measured m;
  WaitUntil(start_ns, NowNs);
  m.reg.before = db->Metrics();
  const TableCounts t_before = TableCounts::Of(table->stats());
  m.buf_before = db->buffer_stats();
  if (win->trace_mode) m.trace_lo = TraceContext::NewTraceId();

  constexpr uint64_t kHalfNs = 500'000'000;
  constexpr uint64_t kTickNs = 100'000'000;
  std::unordered_set<uint64_t> seen;
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  uint64_t half_start = t0;
  bool traced_half = win->trace_mode;
  win->traced.store(traced_half, std::memory_order_relaxed);
  uint64_t unset = 0;
  win->t0_ns.compare_exchange_strong(unset, t0, std::memory_order_acq_rel);
  m.slice_secs = win->slice_ns / 1e9;
  win->phase.store(bench::kMeasure, std::memory_order_release);
  auto close_half = [&](uint64_t now) {
    (traced_half ? m.traced_secs : m.plain_secs) += (now - half_start) / 1e9;
    half_start = now;
  };
  for (uint64_t now = t0; now < end; now = NowNs()) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(kTickNs, end - now)));
    if (!win->trace_mode) continue;
    Harvest(m.trace_lo, &seen, &m.spans);
    now = NowNs();
    if (now - half_start >= kHalfNs && now < end) {
      close_half(now);
      traced_half = !traced_half;
      win->traced.store(traced_half, std::memory_order_relaxed);
    }
  }
  win->phase.store(bench::kStop, std::memory_order_release);
  const uint64_t t1 = NowNs();
  close_half(t1);
  m.secs = (t1 - t0) / 1e9;
  m.reg.after = db->Metrics();
  m.table = TableCounts::Of(table->stats()).Minus(t_before);
  m.buf_after = db->buffer_stats();
  join();
  if (win->trace_mode) {
    m.trace_hi = TraceContext::NewTraceId();
    Harvest(m.trace_lo, &seen, &m.spans);
  }
  return m;
}

void Report::Percentile(const std::string& name, const LatencyHistogram& h,
                        double q, double div, const char* unit,
                        bool required) {
  if (h.count() == 0 && !required) return;
  if (!h.Supports(q)) {
    Line(Fmt("%-30s n/a %s (n=%" PRIu64 ", %" PRIu64
             " beyond; 10 needed)",
             name.c_str(), unit, h.count(), h.Beyond(q)));
    if (required) Invalid(name + " has fewer than 10 samples beyond it");
    return;
  }
  double v = static_cast<double>(h.ValueAt(q)) / div;
  Set(name, v);
  Line(Fmt("%-30s %.4g %s (n=%" PRIu64 ", %" PRIu64 " beyond)", name.c_str(),
           v, unit, h.count(), h.Beyond(q)));
}

Engine SetUp(const Options& opts, const DurabilityOptions& dur,
             const TableConfig& tcfg, bool update_all, Report* r) {
  std::vector<double> secs;
  Engine e;
  for (uint32_t i = 0; i < kSetups; ++i) {
    e.table = nullptr;
    e.db.reset();
    std::filesystem::remove_all(opts.dir);
    std::filesystem::create_directories(opts.dir);
    const uint64_t t0 = NowNs();
    bench::Must(Database::Open(opts.dir, dur, &e.db), "open database");
    bench::Must(e.db->CreateTable(kTable, Schema(kColumns), tcfg),
                "create table");
    e.table = e.db->GetTable(kTable);
    Random rng(opts.seed * 0x2545f4914f6cdd1dull + 17);
    constexpr uint64_t kChunk = 4096;
    std::vector<std::vector<Value>> rows;
    std::vector<Value> keys;
    for (int pass = 0; pass < (update_all ? 2 : 1); ++pass) {
      for (uint64_t k = 0; k < kRows;) {
        rows.clear();
        keys.clear();
        for (uint64_t i2 = 0; i2 < kChunk && k < kRows; ++i2, ++k) {
          rows.emplace_back();
          FillRow(k, rng.Next(), &rows.back());
          keys.push_back(k);
        }
        Txn txn = e.db->Begin();
        bench::Must(pass == 0 ? e.table->InsertBatch(txn, rows)
                              : e.table->UpdateBatch(txn, keys, kPairMask, rows),
                    "preload");
        bench::Must(txn.Commit(), "preload commit");
      }
    }
    e.table->WaitForMergeQueue();
    secs.push_back((NowNs() - t0) / 1e9);
  }
  const double median = Median(secs);
  const size_t n = secs.size();
  r->Set("setup_s", median);
  std::string each;
  for (double s : secs) each += Fmt(" %.3f", s);
  r->Line(Fmt("%-30s %.4g s (median of %zu:%s)", "setup_s", median, n,
              each.c_str()));
  return e;
}

uint64_t TailBacklog(Table* table) {
  uint64_t backlog = 0;
  for (uint64_t id = 0; id < table->num_ranges(); ++id) {
    uint32_t len = table->RangeTailLength(id), tps = table->RangeTps(id);
    if (len > tps) backlog += len - tps;
  }
  return backlog;
}

void CheckTable(Table* table, uint64_t expected_rows, const char* when,
                Report* r) {
  const Timestamp ts = table->Now();
  uint64_t count = 0, s1 = 0, n1 = 0, s2 = 0, n2 = 0;
  Status a = table->NewQuery().AsOf(ts).Count(&count);
  Status b = table->NewQuery().AsOf(ts).Sum(1, &s1, &n1);
  Status c = table->NewQuery().AsOf(ts).Sum(2, &s2, &n2);
  bool ok = a.ok() && b.ok() && c.ok() && count == expected_rows &&
            n1 == count && n2 == count && s1 + s2 == count * kRowSum;
  r->Line(Fmt("check %-8s rows=%" PRIu64 " (expected %" PRIu64
              ") sum(c1)+sum(c2)=%" PRIu64 " (expected %" PRIu64 ")  %s",
              when, count, expected_rows, s1 + s2, count * kRowSum,
              ok ? "ok" : "WRONG"));
  if (!ok) {
    ++r->wrong;
    ++r->failed;
  }
}

void ReportCommon(const Options& opts, const ThreadStats& st,
                  const Measured& m, Table* table, Report* r) {
  const double secs = m.secs;
  const RegistryWindow& reg = m.reg;
  const TableCounts& d = m.table;

  // --- end to end ---------------------------------------------------------
  // Rates and update latencies are medians over the window's slices
  // (ops by completion time, rows by run time, latencies by issue
  // time); the whole-run figures print beside them.
  std::vector<double> rate, rows, p50, p99;
  double rows_total = 0;
  for (const Slice& sl : st.slices) {
    rate.push_back(sl.ops / m.slice_secs);
    rows.push_back(sl.rows / m.slice_secs);
    rows_total += sl.rows;
    if (sl.update.Supports(0.50)) p50.push_back(sl.update.ValueAt(0.50) / 1e3);
    if (sl.update.Supports(0.99)) p99.push_back(sl.update.ValueAt(0.99) / 1e3);
  }
  const size_t slices = st.slices.size();
  const uint64_t ops = st.done[kRead] + st.done[kUpdate] + st.done[kInsert];
  r->Set("ops_per_s", Median(rate));
  r->Set("rows_read_per_s", Median(rows));
  r->Line(Fmt("%-30s %.6g 1/s (median of %zu slices; whole run %" PRIu64
              " point ops in %.3f s = %.6g 1/s)",
              "ops_per_s", Median(rate), slices, ops, secs, ops / secs));
  for (const auto& [name, v] : {std::pair{"ops_per_s by slice", &rate},
                                std::pair{"update_p99_us by slice", &p99}}) {
    std::string by_slice;
    for (double x : *v) by_slice += Fmt(" %.4g", x);
    r->Line(Fmt("%-30s%s", name, by_slice.c_str()));
  }
  r->Line(Fmt("%-30s %.6g 1/s (median of %zu slices; whole run %.6g 1/s)",
              "rows_read_per_s", Median(rows), slices, rows_total / secs));
  for (const auto& [name, v] : {std::pair{"update_p50_us", &p50},
                                std::pair{"update_p99_us", &p99}}) {
    r->Set(name, Median(*v));
    r->Line(Fmt("%-30s %.6g us (median of %zu slices with >= 10 samples "
                "beyond it, of %zu)",
                name, Median(*v), v->size(), slices));
    if (!opts.trace && (slices == 0 || v->size() * 2 < slices)) {
      r->Invalid(std::string(name) + ": under half the slices support it");
    }
  }
  r->Percentile("read_p50_us", st.lat[kRead], 0.50, 1e3, "us", false);
  r->Percentile("read_p99_us", st.lat[kRead], 0.99, 1e3, "us", false);
  r->Percentile("update_p50_us (whole run)", st.lat[kUpdate], 0.50, 1e3, "us",
                false);
  r->Percentile("update_p90_us (whole run)", st.lat[kUpdate], 0.90, 1e3, "us",
                false);
  r->Percentile("update_p99_us (whole run)", st.lat[kUpdate], 0.99, 1e3, "us",
                false);
  r->Percentile("insert_p50_us", st.lat[kInsert], 0.50, 1e3, "us", false);
  r->Percentile("insert_p99_us", st.lat[kInsert], 0.99, 1e3, "us", false);
  r->Percentile("scan_p50_ms", st.lat[kScan], 0.50, 1e6, "ms", false);
  r->Percentile("scan_p90_ms", st.lat[kScan], 0.90, 1e6, "ms", false);
  if (st.lat[kScan].count() > 0) {
    r->Line(Fmt("%-30s %.6g 1/s", "scan_rows_per_s", rows_total / secs));
  }
  r->attempted += st.attempted;
  r->failed += st.failed;
  r->wrong += st.wrong;
  r->errors += st.errors;
  r->Line(Fmt("%-30s %.6g (failed=%" PRIu64 " of attempted=%" PRIu64
              "; wrong_results=%" PRIu64 " errors=%" PRIu64 " busy=%" PRIu64
              "; retried ww_aborts=%" PRIu64 " commit_aborts=%" PRIu64 ")",
              "failed_ratio", Ratio(st.failed, st.attempted), st.failed,
              st.attempted, r->wrong, st.errors, st.busy, st.ww_aborts,
              st.commit_aborts));
  if (!st.first_error.empty()) {
    r->Line("first error: " + st.first_error);
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  r->Set("peak_rss_mb", ru.ru_maxrss / 1024.0);
  r->Line(Fmt("%-30s %.6g MB", "peak_rss_mb", ru.ru_maxrss / 1024.0));

  // --- per layer: bench-timed calls (trace mode) -------------------------
  r->Percentile("table.read_call_p50_us", st.call_read, 0.50, 1e3, "us", false);
  r->Percentile("table.read_call_p99_us", st.call_read, 0.99, 1e3, "us", false);
  r->Percentile("table.update_call_p99_us", st.call_update, 0.99, 1e3, "us",
                false);
  r->Percentile("table.insert_call_p99_us", st.call_insert, 0.99, 1e3, "us",
                false);
  r->Percentile("commit.call_p99_us", st.call_commit, 0.99, 1e3, "us", false);
  r->Percentile("query.sum_call_p50_ms", st.call_sum, 0.50, 1e6, "ms", false);
  r->Percentile("loadgen.late_p99_us", st.late, 0.99, 1e3, "us", false);

  // --- per layer: window deltas of the engine's counters ------------------
  const uint64_t commits = reg.Counter("lstore_commits_total");
  const uint64_t aborts = reg.Counter("lstore_aborts_total");
  const uint64_t fsyncs = reg.Counter("lstore_redo_fsyncs_total") +
                          reg.Counter("lstore_commit_log_fsyncs_total");
  const HistogramSnapshot batch = reg.Histogram("lstore_group_commit_batch_size");
  const HistogramSnapshot ckpt = reg.Histogram("lstore_checkpoint_capture_ns");
  BufferPoolStats b0 = m.buf_before, b1 = m.buf_after;
  const double hits = static_cast<double>(b1.hits - b0.hits);
  const double misses = static_cast<double>(b1.misses - b0.misses);
  const double accepted = reg.Counter("lstore_server_requests_total");
  const double rejected = reg.Counter("lstore_server_rejected_total");
  const std::pair<const char*, double> layer[] = {
      {"table.chain_hops_per_read", Ratio(d.tail_chain_hops, d.reads)},
      {"table.ww_abort_ratio", Ratio(d.ww_aborts, d.updates + d.ww_aborts)},
      {"commit.abort_ratio", Ratio(aborts, commits + aborts)},
      {"commit.batch_size_mean", Ratio(batch.sum, batch.count)},
      {"commit.queue_wait_p99_us",
       reg.Quantile("lstore_commit_queue_wait_ns", 0.99, 1e3)},
      {"log.fsyncs_per_commit", Ratio(fsyncs, commits)},
      {"log.fsync_p99_us",
       reg.Counter("lstore_redo_fsyncs_total") > 0
           ? reg.Quantile("lstore_redo_flush_ns", 0.99, 1e3)
           : 0.0},
      {"log.bytes_per_update",
       Ratio(reg.Counter("lstore_redo_append_bytes_total"),
             d.updates + d.inserts)},
      {"log.append_p99_us", reg.Quantile("lstore_redo_append_ns", 0.99, 1e3)},
      {"merge.update_merges_per_s", d.merges / secs},
      {"merge.rows_consolidated_per_s",
       reg.Counter("lstore_merge_rows_consolidated_total") / secs},
      {"merge.update_p99_ms", reg.Quantile("lstore_merge_update_ns", 0.99, 1e6)},
      {"merge.tail_backlog_records", static_cast<double>(TailBacklog(table))},
      {"query.partition_p99_us",
       reg.Quantile("lstore_query_partition_ns", 0.99, 1e3)},
      {"buffer.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 1.0},
      {"buffer.misses_per_s", misses / secs},
      {"buffer.evictions_per_s", (b1.evictions - b0.evictions) / secs},
      {"server.queue_wait_p99_us",
       reg.Quantile("lstore_server_queue_wait_ns", 0.99, 1e3)},
      {"server.request_p50_us",
       reg.Quantile("lstore_server_request_ns", 0.50, 1e3)},
      {"server.rejected_ratio", Ratio(rejected, accepted + rejected)},
      {"checkpoint.count", static_cast<double>(
                               reg.Counter("lstore_checkpoints_total"))},
      {"checkpoint.capture_mean_ms", Ratio(ckpt.sum, ckpt.count) / 1e6},
  };
  for (const auto& [name, v] : layer) {
    r->Set(name, v);
    r->Line(Fmt("%-30s %.6g", name, v));
  }
  r->Line(Fmt("%-30s budget=%" PRIu64 " B resident=%" PRIu64
              " B pages=%" PRIu64 " (at window end)",
              "buffer", b1.budget_bytes, b1.bytes_resident, b1.pages));
  r->Line(Fmt("%-30s merges=%" PRIu64 " over %" PRIu64
              " ranges, checkpoints=%" PRIu64 " (capture n=%" PRIu64 ")",
              "window", d.merges, table->num_ranges(),
              reg.Counter("lstore_checkpoints_total"), ckpt.count));

  if (!opts.trace) return;

  // --- trace: overhead and the p99 stage breakdown -----------------------
  double plain = Ratio(st.ops_plain_win, m.plain_secs);
  double traced = Ratio(st.ops_traced_win, m.traced_secs);
  r->Set("trace.overhead_ratio", traced > 0 ? plain / traced - 1.0 : 0.0);
  r->Line(Fmt("%-30s %.6g (untraced %.6g ops/s, traced %.6g ops/s)",
              "trace.overhead_ratio", r->values["trace.overhead_ratio"], plain,
              traced));
  bench::StageBreakdown sb = bench::ComputeStageBreakdown(
      ClipToRoots(m.spans), m.trace_lo, m.trace_hi);
  std::map<std::string, double> stages;
  for (const char* s : kStages) stages[s] = 0;
  double sum = 0;
  for (const auto& [name, us] : sb.stage_us) {
    auto it = stages.find(name);
    (it != stages.end() ? it->second : stages["unlisted"]) += us;
    sum += us;
  }
  for (const auto& [name, us] : stages) {
    r->Set("stage." + name + ".self_p99_us", us);
    if (us > 0) {
      r->Line(Fmt("%-30s %.4g us (%.1f%%)",
                  ("stage." + name + ".self_p99_us").c_str(), us,
                  sb.e2e_us > 0 ? 100 * us / sb.e2e_us : 0.0));
    }
  }
  r->Set("trace.e2e_p99_us", sb.e2e_us);
  r->Set("trace.traces", static_cast<double>(sb.traces));
  r->Line(Fmt("%-30s %.4g us over %zu traced updates; stages sum to %.4g us",
              "trace.e2e_p99_us", sb.e2e_us, sb.traces, sum));
  r->Guard(sb.traces >= 100, "trace: at least 100 complete traced updates");
  r->Guard(std::fabs(sum - sb.e2e_us) <= 1e-6 * std::max(1.0, sb.e2e_us),
           "trace: stage self times sum to the traced e2e p99");
}

}  // namespace perfbench
}  // namespace lstore
