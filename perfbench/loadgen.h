// Open-loop load generation for the serve-durable workload.
//
// Requests arrive on a seeded Poisson schedule fixed before the run:
// exponential inter-arrival gaps at the connection's rate, each
// arrival carrying its op kind, key and update value. A sender thread
// transmits each request at its intended time whether or not earlier
// ones were answered; the matching receiver thread times every reply
// from that intended time (as wrk2 does), so a stall that delays later
// sends is charged to the requests it delayed instead of disappearing
// from the sample (coordinated omission). How late the sender itself
// ran is recorded separately: a generator that cannot keep to its
// schedule makes the latencies meaningless, and the run is invalid.

#ifndef LSTORE_PERFBENCH_LOADGEN_H_
#define LSTORE_PERFBENCH_LOADGEN_H_

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "lat_hist.h"

namespace lstore {
namespace perfbench {

struct Arrival {
  uint64_t at_ns = 0;   ///< intended send time, from the schedule origin
  bool update = false;  ///< update (else point read)
  uint64_t key = 0;
  uint64_t value = 0;   ///< raw random draw for the update's new values
};

/// Poisson arrivals at `rate_per_s` over [0, horizon_ns): the same
/// (rate, horizon, mix, keyspace, seed) always yields the same list.
inline std::vector<Arrival> PoissonSchedule(double rate_per_s,
                                            uint64_t horizon_ns,
                                            uint32_t update_pct, uint64_t rows,
                                            double theta, uint64_t seed) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0) return out;
  out.reserve(static_cast<size_t>(rate_per_s * horizon_ns / 1e9 * 1.1) + 16);
  Random rng(seed);
  KeyGenerator keys(rows, theta, seed * 0x9e3779b97f4a7c15ull + 1);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0;
  while (true) {
    double u = 1.0 - rng.NextDouble();  // (0, 1]
    t += -std::log(u) * mean_gap_ns;
    if (t >= static_cast<double>(horizon_ns)) break;
    Arrival a;
    a.at_ns = static_cast<uint64_t>(t);
    a.update = rng.Uniform(100) < update_pct;
    a.key = keys.Next();
    a.value = rng.Next();
    out.push_back(a);
  }
  return out;
}

/// How late a request left the sender: 0 when on time.
inline uint64_t LateNs(uint64_t intended_ns, uint64_t sent_ns) {
  return sent_ns > intended_ns ? sent_ns - intended_ns : 0;
}

/// A run kept to its schedule when the sender's p99 lateness is
/// reportable and within `limit_ns`.
inline bool OnSchedule(const LatencyHistogram& late, uint64_t limit_ns) {
  return late.Supports(0.99) && late.ValueAt(0.99) <= limit_ns;
}

/// Block until the steady clock reaches `deadline_ns` (NowNs() base):
/// sleep while far away, then yield-spin the last stretch so sends land
/// within a few microseconds of their intended time. The spin is kept
/// short so the sender leaves the cores to the server it loads; call
/// TightenTimerSlack() on the thread first so the sleep itself wakes
/// on time.
template <typename NowFn>
inline void WaitUntil(uint64_t deadline_ns, NowFn now) {
  constexpr uint64_t kSpinNs = 50'000;
  uint64_t t = now();
  if (t + kSpinNs < deadline_ns) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - t - kSpinNs));
  }
  while (now() < deadline_ns) std::this_thread::yield();
}

/// Let this thread's timed sleeps wake within ~1 us of their deadline
/// instead of the default 50 us slack (Linux; no-op elsewhere).
inline void TightenTimerSlack() {
#if defined(__linux__)
  (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
}

}  // namespace perfbench
}  // namespace lstore

#endif  // LSTORE_PERFBENCH_LOADGEN_H_
