// serve-durable: the engine behind its own server over loopback, in
// this process, with sync_commit on and a timed background checkpoint.
// Load is open loop: a seeded Poisson schedule at a fixed total rate,
// read 80 / update 20 over scrambled-zipfian(0.99) keys, split over 2
// connections. Each connection has a sender thread that writes every
// request at its intended time and a receiver thread that matches
// replies by request id, so sending never waits on a reply.
//
// The generator speaks the wire protocol (server/wire.h) directly:
// ClientChannel is single-threaded by design — Submit and Await cannot
// run at the same time on one connection — and an open loop must keep
// sending while replies are outstanding.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "obs/span.h"
#include "server/client_channel.h"
#include "server/server.h"
#include "server/wire.h"

namespace lstore {
namespace perfbench {

namespace {

/// Offered load. Closed-loop capacity of this path (2 connections
/// pipelining 8 deep, sync on) is ~30-40k requests/s on 4 cores; a
/// third of it leaves headroom for the shared disk's slow fsyncs,
/// which at 15k requests/s could let the backlog grow without bound.
constexpr double kRate = 10000;
constexpr uint32_t kConnections = 2;
constexpr uint32_t kUpdatePct = 20;
/// Every traced half traces one update in this many.
constexpr uint64_t kTraceEvery = 8;
/// The generator is on schedule when its p99 lateness is within this.
/// Host pauses of a few ms stall the server as much as the sender, and
/// the latencies, timed from the intended send, already charge them to
/// the requests they delayed; on a shared VM they put the p99 at 1-3 ms
/// in some runs. A generator that cannot keep its rate falls further
/// behind with every request: a shortfall of 0.1% already leaves the
/// last 1% of a 10 s window more than 5 ms late.
constexpr uint64_t kLateLimitNs = 5'000'000;
/// The server kept up when no more requests than 100 ms of arrivals
/// are sent but unanswered at the end of the window.
constexpr uint64_t kBacklogLimit = static_cast<uint64_t>(kRate / 10);

struct Conn {
  int fd = -1;
  std::vector<Arrival> sched;
  /// Trace id stamped on request i (0 = untraced); written by the
  /// sender before the request leaves, read by the receiver after.
  std::unique_ptr<std::atomic<uint64_t>[]> trace_of;
  std::mutex write_mu;  ///< sender and receiver (retries) both write
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> finished{0};  ///< requests with a final reply
  std::atomic<bool> sender_done{false};

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

Status Connect(uint16_t port, int* out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::IOError("connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A reply that never comes ends the receiver instead of hanging it.
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  *out = fd;
  return Status::OK();
}

/// Request i of the schedule as a wire payload (same encoding as
/// Client::SubmitRead / SubmitUpdate).
std::string Encode(uint32_t id, const Arrival& a, uint64_t trace_id,
                   std::vector<Value>* row) {
  std::string p;
  wire::PutU32(&p, id);
  auto op = static_cast<uint8_t>(a.update ? wire::Op::kUpdate : wire::Op::kRead);
  if (trace_id != 0) {
    wire::PutU8(&p, op | wire::kTracedOpFlag);
    wire::PutU64(&p, trace_id);
  } else {
    wire::PutU8(&p, op);
  }
  wire::PutString(&p, kTable);
  wire::PutU64(&p, a.key);
  if (a.update) {
    wire::PutU64(&p, kPairMask);
    FillRow(a.key, a.value, row);
    wire::PutValues(&p, *row);
  } else {
    wire::PutU64(&p, kAllMask);
  }
  return p;
}

Status Send(Conn* c, const std::string& payload) {
  std::lock_guard<std::mutex> g(c->write_mu);
  return wire::WriteFrame(c->fd, payload);
}

struct Clock {
  uint64_t origin = 0;          ///< schedule time 0
  uint64_t w0 = 0, w1 = 0;      ///< measured intended-time window
  bool InWindow(uint64_t due) const { return due >= w0 && due < w1; }
};

void Sender(Conn* c, const Clock& clk, const Window* win, ThreadStats* st) {
  TightenTimerSlack();
  std::vector<Value> row;
  uint64_t updates = 0;
  for (size_t i = 0; i < c->sched.size(); ++i) {
    const Arrival& a = c->sched[i];
    const uint64_t due = clk.origin + a.at_ns;
    WaitUntil(due, NowNs);
    const bool measured = clk.InWindow(due);
    uint64_t trace_id = measured && win->tracing() && a.update &&
                                (updates++ % kTraceEvery) == 0
                            ? TraceContext::NewTraceId()
                            : 0;
    c->trace_of[i].store(trace_id, std::memory_order_release);
    std::string payload = Encode(static_cast<uint32_t>(i + 1), a, trace_id, &row);
    const uint64_t ts = NowNs();
    Status s = Send(c, payload);
    if (measured) st->late.Record(LateNs(due, ts));
    // No span for the write itself: the server may read the frame
    // before write() returns, and overlapping siblings would be
    // charged twice in the stage breakdown.
    RecordSpan(trace_id, "loadgen.late", due, LateNs(due, ts));
    if (!s.ok()) {
      NoteError("send", s, st);
      break;
    }
    c->sent.store(i + 1, std::memory_order_release);
  }
  c->sender_done.store(true, std::memory_order_release);
  // Wake a receiver blocked on a reply that is no longer coming.
  std::string ping;
  wire::PutU32(&ping, 0);
  wire::PutU8(&ping, static_cast<uint8_t>(wire::Op::kPing));
  (void)Send(c, ping);
}

void Receiver(Conn* c, const Clock& clk, const Window* win, ThreadStats* st) {
  std::vector<uint32_t> attempts(c->sched.size(), 0);
  std::vector<Value> row;
  std::string resp, msg;
  uint64_t finished = 0;
  while (!(c->sender_done.load(std::memory_order_acquire) &&
           finished == c->sent.load(std::memory_order_acquire))) {
    c->finished.store(finished, std::memory_order_release);
    Status s = wire::ReadFrame(c->fd, wire::kDefaultMaxFrameBytes, &resp);
    if (!s.ok()) {
      NoteError("receive", s, st);  // timeout or closed: the rest are lost
      st->failed += c->sent.load() - finished;
      return;
    }
    const uint64_t now = NowNs();
    wire::Reader in(resp);
    uint32_t id = 0;
    uint8_t code = 0;
    if (!in.U32(&id) || !in.U8(&code) || !in.String(&msg) ||
        id > c->sched.size()) {
      NoteError("receive", Status::Corruption("malformed response"), st);
      continue;
    }
    if (id == 0) continue;  // the sender's wake-up ping
    const size_t i = id - 1;
    const Arrival& a = c->sched[i];
    Status os = StatusFromWire(code, msg);
    const uint64_t trace_id = c->trace_of[i].load(std::memory_order_acquire);
    if (os.IsAborted() && ++attempts[i] < kMaxAttempts) {
      // A write-write conflict: resend; latency still runs from the
      // original intended time.
      ++st->ww_aborts;
      Status rs = Send(c, Encode(id, a, trace_id, &row));
      if (rs.ok()) continue;
      os = rs;
    }
    ++finished;
    const uint64_t due = clk.origin + a.at_ns;
    bool correct = !WrongStatus(os);
    if (os.ok() && !a.update) {
      wire::Reader body(in.rest());
      correct = body.Values(&row) && RowOk(row) && row[0] == a.key;
    }
    if (os.IsBusy()) {
      ++st->busy;
    } else if (!os.ok()) {
      NoteError(a.update ? "update" : "read", os, st);
    }
    if (!correct) ++st->wrong;
    RecordSpan(trace_id, "request", due, now - due);
    const Kind k = a.update ? kUpdate : kRead;
    // The rates count replies by when they arrive, so a server that
    // falls behind the schedule shows in ops_per_s; latencies belong to
    // the requests sent inside the window, however late their reply.
    if (os.ok() && correct) st->CountDone(*win, k, now, now, k == kRead ? 1 : 0);
    if (!clk.InWindow(due)) continue;
    ++st->attempted;
    if (!os.ok() || !correct) {
      ++st->failed;
      continue;
    }
    st->RecordLatency(*win, k, due, now - due);
    if (win->trace_mode) ++(win->tracing() ? st->ops_traced_win : st->ops_plain_win);
  }
}

}  // namespace

Report RunServeDurable(const Options& opts) {
  Report r;
  DurabilityOptions dur;
  dur.sync_commit = true;
  Engine e = SetUp(opts, dur, TableConfig{}, false, &r);

  ServerConfig sc;
  sc.port = 0;
  sc.workers = 2;
  // Admission control is not what this workload measures: the open
  // loop's backlog must be able to queue.
  sc.max_queue_depth = 1u << 14;
  sc.max_inflight_per_session = 1u << 13;
  Server server(e.db.get(), sc);
  bench::Must(server.Start(), "start server");

  const uint64_t warmup_ns = static_cast<uint64_t>(kWarmupSeconds * 1e9);
  const uint64_t window_ns = static_cast<uint64_t>(opts.seconds * 1e9);
  std::vector<std::unique_ptr<Conn>> conns;
  for (uint32_t c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    bench::Must(Connect(server.port(), &conn->fd), "connect");
    conn->sched = PoissonSchedule(kRate / kConnections,
                                  warmup_ns + window_ns, kUpdatePct, kRows,
                                  0.99, opts.seed * 1000003 + c);
    conn->trace_of =
        std::make_unique<std::atomic<uint64_t>[]>(conn->sched.size());
    conns.push_back(std::move(conn));
  }

  Window win(opts.seconds, opts.trace);
  Clock clk;
  clk.origin = NowNs() + 50'000'000;
  clk.w0 = clk.origin + warmup_ns;
  clk.w1 = clk.w0 + window_ns;
  win.t0_ns = clk.w0;
  std::vector<ThreadStats> stats(2 * kConnections);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Sender(conns[c].get(), clk, &win, &stats[2 * c]);
    });
    threads.emplace_back([&, c] {
      Receiver(conns[c].get(), clk, &win, &stats[2 * c + 1]);
    });
  }
  // The timed background checkpoint: one per slice at a fixed offset
  // into it (and one in the warm-up), so every slice's latencies carry
  // exactly one checkpoint's interference and the slice medians stay
  // comparable run to run.
  ThreadStats ckpt_stats;
  std::thread checkpointer([&] {
    TightenTimerSlack();
    for (uint64_t at = clk.w0 - win.slice_ns / 2; at < clk.w1;
         at += win.slice_ns) {
      WaitUntil(at, NowNs);
      Status s = e.db->Checkpoint();
      if (!s.ok()) NoteError("checkpoint", s, &ckpt_stats);
    }
  });
  uint64_t backlog = 0;  ///< sent but unanswered at the window's end
  Measured m = RunWindow(&win, e.db.get(), e.table, clk.w0, opts.seconds, [&] {
    for (const auto& c : conns) {
      backlog += c->sent.load(std::memory_order_acquire) -
                 c->finished.load(std::memory_order_acquire);
    }
    checkpointer.join();
    for (auto& t : threads) t.join();
  });
  conns.clear();
  server.Stop();

  ThreadStats all = ckpt_stats;
  for (const auto& s : stats) all.Merge(s);
  ReportCommon(opts, all, m, e.table, &r);
  r.Guard(m.reg.Counter("lstore_checkpoints_total") >= 3 &&
              ckpt_stats.errors == 0,
          "serve-durable: >= 3 checkpoints completed while measuring, "
          "none failed");
  r.Guard(OnSchedule(all.late, kLateLimitNs),
          "serve-durable: generator p99 lateness <= 5 ms (on schedule)");
  r.Line("loadgen.backlog_at_end         " + std::to_string(backlog) +
         " requests");
  r.Guard(backlog <= kBacklogLimit,
          "serve-durable: <= " + std::to_string(kBacklogLimit) +
              " requests (100 ms of arrivals) unanswered at the window's "
              "end (the server kept up)");
  CheckTable(e.table, kRows, "end", &r);

  // Clean shutdown, then reopen: recovery must bring back every row
  // with the invariant intact.
  e.table = nullptr;
  e.db.reset();
  const uint64_t t0 = NowNs();
  std::unique_ptr<Database> db;
  bench::Must(Database::Open(opts.dir, &db), "reopen database");
  const double reopen_s = (NowNs() - t0) / 1e9;
  r.Set("checkpoint.reopen_s", reopen_s);
  r.Line("checkpoint.reopen_s             " + std::to_string(reopen_s) + " s");
  Table* t = db->GetTable(kTable);
  if (t == nullptr) {
    ++r.wrong;
    ++r.failed;
    r.Line("check reopen: table missing  WRONG");
  } else {
    CheckTable(t, kRows, "reopen", &r);
  }
  db.reset();
  std::filesystem::remove_all(opts.dir);
  return r;
}

}  // namespace perfbench
}  // namespace lstore
