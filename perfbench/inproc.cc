// The two in-process workloads.
//
// oltp-zipf: 2 closed-loop clients, one Txn per op, read 75 / update
// 20 / insert 5 over scrambled-zipfian(0.99) keys of a 1M-row table
// that fits its buffer pool more than twice over; redo log on,
// sync_commit off.
//
// htap-cold: the paper's Fig. 10 roles — 2 updaters doing blind
// uniform updates, 1 analyst doing back-to-back snapshot scan pairs
// (Sum(c1), Sum(c2) at one AsOf) on one worker — over a buffer pool a
// quarter of the base footprint, so scans miss and evict.

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "common.h"
#include "core/query.h"
#include "obs/span.h"

namespace lstore {
namespace perfbench {

namespace {

/// Every traced half traces one update in this many.
constexpr uint64_t kTraceEvery = 32;

/// Bytes of the base columns: the footprint the buffer budgets scale by.
constexpr uint64_t kBaseFootprint = kRows * kColumns * sizeof(Value);

/// One blind update of (c1, c2), retried on conflicts. Bench-timed
/// calls and spans when `layer` / a trace id are set.
Status UpdateOp(Database* db, Table* t, Value key, uint64_t draw, bool layer,
                uint64_t trace_id, std::vector<Value>* row, ThreadStats* st) {
  FillRow(key, draw, row);
  Status s;
  for (const uint64_t start = NowNs(); NowNs() - start < kRetryBudgetNs;) {
    Txn txn = db->Begin();
    s = Timed(layer ? &st->call_update : nullptr, trace_id, "table.update",
              [&] { return t->Update(txn, key, kPairMask, *row); });
    if (s.IsAborted()) {
      ++st->ww_aborts;
      txn.Abort();
      std::this_thread::yield();
      continue;
    }
    if (!s.ok()) return s;
    s = Timed(layer ? &st->call_commit : nullptr, trace_id, "txn.commit",
              [&] { return txn.Commit(); });
    if (!s.IsAborted()) return s;
    ++st->commit_aborts;
  }
  return s;
}

/// Account one finished op of kind `k` started at `t0`.
void Finish(const Window& win, bool measure, bool layer, Kind k, uint64_t t0,
            const Status& s, bool correct, uint64_t rows, ThreadStats* st) {
  static const char* kNames[kNumKinds] = {"read", "update", "insert", "scan"};
  if (!s.ok()) NoteError(kNames[k], s, st);
  if (!correct || WrongStatus(s)) ++st->wrong;
  const bool ok = s.ok() && correct;
  const uint64_t now = NowNs();
  // The rates take what ran inside the window, even of an op (a scan
  // pair) that started in the warm-up.
  if (ok) st->CountDone(win, k, t0, now, rows);
  if (!measure) return;
  ++st->attempted;
  if (!ok) {
    ++st->failed;
    return;
  }
  st->RecordLatency(win, k, t0, now - t0);
  if (win.trace_mode && k != kScan) {
    ++(layer ? st->ops_traced_win : st->ops_plain_win);
  }
}

void OltpWorker(const Options& opts, const bench::BenchArgs& args,
                Database* db, Table* t, uint32_t w,
                std::atomic<uint64_t>* next_key, const Window* win,
                ThreadStats* st) {
  bench::PinToCore(w);
  bench::OpGen gen(args, w, next_key);
  Random draws(opts.seed * 7919 + w);
  std::vector<Value> row, out;
  uint64_t updates = 0;
  while (!win->stopped()) {
    const bool measure = win->measuring();
    const bool layer = measure && win->tracing();
    const uint32_t cls = gen.NextClass();
    const uint64_t t0 = NowNs();
    Status s;
    bool correct = true;
    Kind kind = kRead;
    switch (cls) {
      case bench::kOpRead: {
        const Value key = gen.NextKey();
        Txn txn = db->Begin();
        s = Timed(layer ? &st->call_read : nullptr, 0, "table.read",
                  [&] { return t->Read(txn, key, kAllMask, &out); });
        if (s.ok()) {
          correct = RowOk(out) && out[0] == key;
          s = txn.Commit();
        }
        break;
      }
      case bench::kOpUpdate: {
        kind = kUpdate;
        uint64_t trace_id = layer && (updates++ % kTraceEvery) == 0
                                ? TraceContext::NewTraceId()
                                : 0;
        TraceContext::Scope scope(trace_id);
        s = UpdateOp(db, t, gen.NextKey(), draws.Next(), layer, trace_id, &row,
                     st);
        RecordSpan(trace_id, "request", t0, NowNs() - t0);
        break;
      }
      default: {  // insert
        kind = kInsert;
        FillRow(gen.NextInsertKey(), draws.Next(), &row);
        Txn txn = db->Begin();
        s = Timed(layer ? &st->call_insert : nullptr, 0, "table.insert",
                  [&] { return t->Insert(txn, row); });
        if (s.ok()) s = txn.Commit();
        if (s.ok()) ++st->inserts_committed;
        break;
      }
    }
    Finish(*win, measure, layer, kind, t0, s, correct, kind == kRead ? 1 : 0,
           st);
  }
}

void HtapUpdater(const Options& opts, Database* db, Table* t, uint32_t w,
                 const Window* win, ThreadStats* st) {
  bench::PinToCore(w);
  KeyGenerator keys(kRows, 0.0, opts.seed * 104729 + w);
  Random draws(opts.seed * 7919 + w);
  std::vector<Value> row;
  uint64_t updates = 0;
  while (!win->stopped()) {
    const bool measure = win->measuring();
    const bool layer = measure && win->tracing();
    const uint64_t t0 = NowNs();
    uint64_t trace_id = layer && (updates++ % kTraceEvery) == 0
                            ? TraceContext::NewTraceId()
                            : 0;
    TraceContext::Scope scope(trace_id);
    Status s = UpdateOp(db, t, keys.Next(), draws.Next(), layer, trace_id,
                        &row, st);
    RecordSpan(trace_id, "request", t0, NowNs() - t0);
    Finish(*win, measure, layer, kUpdate, t0, s, true, 0, st);
  }
}

/// Back-to-back scan pairs at one snapshot on one worker: the pair
/// must see every row exactly once and total rows * kRowSum.
void HtapAnalyst(Table* t, uint32_t w, const Window* win, ThreadStats* st) {
  bench::PinToCore(w);
  while (!win->stopped()) {
    const bool measure = win->measuring();
    const bool layer = measure && win->tracing();
    const uint64_t t0 = NowNs();
    const Timestamp ts = t->Now();
    uint64_t s1 = 0, n1 = 0, s2 = 0, n2 = 0;
    Status s = Timed(layer ? &st->call_sum : nullptr, 0, "query.sum", [&] {
      return t->NewQuery().AsOf(ts).Workers(1).Sum(1, &s1, &n1);
    });
    if (s.ok()) {
      s = Timed(layer ? &st->call_sum : nullptr, 0, "query.sum", [&] {
        return t->NewQuery().AsOf(ts).Workers(1).Sum(2, &s2, &n2);
      });
    }
    bool correct = !s.ok() || (n1 == kRows && n2 == kRows &&
                               s1 + s2 == n1 * kRowSum);
    Finish(*win, measure, layer, kScan, t0, s, correct, n1 + n2, st);
  }
}

/// Spawn `n` workers running `body(w, stats)`, drive the window, join.
template <typename Body>
Measured RunWorkers(const Options& opts, Engine* e, Window* win, uint32_t n,
                    std::vector<ThreadStats>* stats, Body&& body) {
  stats->resize(n);
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < n; ++w) {
    threads.emplace_back([&, w] { body(w, &(*stats)[w]); });
  }
  return RunWindow(win, e->db.get(), e->table,
                   NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9),
                   opts.seconds, [&] {
                     for (auto& t : threads) t.join();
                   });
}

ThreadStats MergeAll(const std::vector<ThreadStats>& v) {
  ThreadStats all;
  for (const auto& s : v) all.Merge(s);
  return all;
}

}  // namespace

Report RunOltpZipf(const Options& opts) {
  Report r;
  DurabilityOptions dur;
  dur.sync_commit = false;
  dur.buffer_pool_bytes = 4 * kBaseFootprint;
  Engine e = SetUp(opts, dur, TableConfig{}, false, &r);

  bench::BenchArgs args;
  args.rows = kRows;
  args.theta = 0.99;
  args.seed = opts.seed;
  args.columns = kColumns;
  args.mix = bench::OpMix{/*read=*/75, /*insert=*/5, /*update=*/20, 0, 0, 0};
  std::atomic<uint64_t> next_key{kRows};
  Window win(opts.seconds, opts.trace);
  std::vector<ThreadStats> stats;
  Measured m = RunWorkers(opts, &e, &win, 2, &stats,
                          [&](uint32_t w, ThreadStats* st) {
                            OltpWorker(opts, args, e.db.get(), e.table, w,
                                       &next_key, &win, st);
                          });
  ThreadStats all = MergeAll(stats);
  ReportCommon(opts, all, m, e.table, &r);
  r.Guard(m.table.merges >= 10,
          "oltp-zipf: >= 10 update merges ran while measuring");
  r.Guard(m.buf_after.evictions == m.buf_before.evictions,
          "oltp-zipf: no buffer evictions (the data fits the cache)");
  e.table->WaitForMergeQueue();
  CheckTable(e.table, kRows + all.inserts_committed, "end", &r);
  e.db.reset();
  std::filesystem::remove_all(opts.dir);
  return r;
}

Report RunHtapCold(const Options& opts) {
  Report r;
  DurabilityOptions dur;
  dur.sync_commit = false;
  dur.buffer_pool_bytes = kBaseFootprint / 4;
  // Half the default threshold: every range goes through several merge
  // cycles inside one window of blind uniform updates.
  TableConfig tcfg;
  tcfg.merge_threshold = tcfg.range_size / 4;
  // Each row's first update reads its cold base values for the
  // pre-image; left to the window, these reads fade out over the first
  // ~20 s of updates and throughput climbs 2-3x. Taking them in set-up
  // measures the steady state from the first slice.
  Engine e = SetUp(opts, dur, tcfg, true, &r);

  Window win(opts.seconds, opts.trace);
  std::vector<ThreadStats> stats;
  Measured m = RunWorkers(opts, &e, &win, 3, &stats,
                          [&](uint32_t w, ThreadStats* st) {
                            if (w < 2) {
                              HtapUpdater(opts, e.db.get(), e.table, w, &win,
                                          st);
                            } else {
                              HtapAnalyst(e.table, w, &win, st);
                            }
                          });
  ThreadStats all = MergeAll(stats);
  ReportCommon(opts, all, m, e.table, &r);
  const uint64_t ranges = e.table->num_ranges();
  r.Guard(m.table.merges >= 2 * ranges,
          "htap-cold: update merges cover every range at least twice");
  r.Guard(m.buf_after.misses > m.buf_before.misses,
          "htap-cold: buffer misses while measuring");
  e.table->WaitForMergeQueue();
  CheckTable(e.table, kRows, "end", &r);
  e.db.reset();
  std::filesystem::remove_all(opts.dir);
  return r;
}

}  // namespace perfbench
}  // namespace lstore
