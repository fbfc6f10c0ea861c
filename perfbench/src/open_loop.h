// Open-loop request generator: request i is due at start + i * interval,
// whatever happened to earlier requests. Workers (one connection each)
// take the next request index, wait for its due time and send it; when
// every worker is busy the request goes out late. Latency is timed from
// the due time, so a stall is charged to every request it delays, and
// how late the generator ran is reported separately.

#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

struct RequestTiming {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  bool sent = false;

  double latency_ms() const { return 1e-6 * static_cast<double>(done_ns - due_ns); }
  double late_ms() const { return 1e-6 * static_cast<double>(sent_ns - due_ns); }
};

/// The real clock: steady_clock nanoseconds.
struct SteadyClock {
  int64_t Now() const;
  void SleepUntil(int64_t ns) const;
};

/// Runs `count` requests on `workers` threads. `send(i, worker)` performs
/// request i on the worker's connection and returns whether it succeeded.
/// With one worker everything runs on the calling thread (which is what
/// lets tests drive it with a simulated clock).
template <class Clock, class Send>
std::vector<RequestTiming> RunOpenLoop(const Clock& clock, int64_t start_ns,
                                       int64_t interval_ns, size_t count,
                                       size_t workers, Send&& send) {
  std::vector<RequestTiming> timings(count);
  std::atomic<size_t> next{0};
  auto worker_loop = [&](size_t worker) {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      RequestTiming& t = timings[i];
      t.due_ns = start_ns + static_cast<int64_t>(i) * interval_ns;
      clock.SleepUntil(t.due_ns);
      t.sent_ns = clock.Now();
      t.sent = true;
      t.ok = send(i, worker);
      t.done_ns = clock.Now();
    }
  };
  if (workers <= 1) {
    worker_loop(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker_loop, w);
    for (auto& thread : threads) thread.join();
  }
  return timings;
}

inline int64_t SteadyClock::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SteadyClock::SleepUntil(int64_t ns) const {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
