// perfbench_selftest — tests of the benchmark's own measuring code:
// the percentile and sample-count rule against an exact sort, the
// open-loop due-time accounting under an injected stall, output checks
// that must fail on corrupted outputs or digests, and span self time.
// Run with `python3 perfbench/run.py --self-test`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "open_loop.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void TestPercentileMatchesExactSort() {
  std::mt19937_64 rng(42);
  for (size_t n : {1u, 9u, 10u, 11u, 99u, 100u, 101u, 999u, 1000u, 1001u, 4321u}) {
    std::vector<double> values(n);
    std::lognormal_distribution<double> dist(0.0, 2.0);
    for (double& v : values) v = dist(rng);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
      const size_t beyond = n - rank;
      const auto p = ExactPercentile(values, q);
      if (beyond < kMinBeyond) {
        EXPECT(!p.has_value());
        continue;
      }
      EXPECT(p.has_value());
      if (!p) continue;
      EXPECT(p->value == sorted[rank - 1]);
      EXPECT(p->samples == n);
      EXPECT(p->beyond == beyond);
      // Exactly `beyond` samples lie strictly past the reported rank.
      EXPECT(static_cast<size_t>(sorted.end() -
                                 (sorted.begin() + static_cast<long>(rank))) == beyond);
    }
  }
  // p99 needs at least 1000 samples; p50 at least 20.
  EXPECT(!ExactPercentile(std::vector<double>(999, 1.0), 0.99).has_value());
  EXPECT(ExactPercentile(std::vector<double>(1000, 1.0), 0.99).has_value());
  EXPECT(!ExactPercentile(std::vector<double>(19, 1.0), 0.5).has_value());
  EXPECT(ExactPercentile(std::vector<double>(20, 1.0), 0.5).has_value());
  // Sub-microsecond samples keep their digits.
  const auto tiny = ExactPercentile(std::vector<double>(100, 0.00023), 0.5);
  EXPECT(tiny && tiny->value == 0.00023);
}

// A clock that only moves when told to: sleeping jumps to the deadline,
// and each request advances it by its service time.
struct FakeClock {
  mutable int64_t now = 0;
  int64_t Now() const { return now; }
  void SleepUntil(int64_t ns) const { now = std::max(now, ns); }
};

void TestOpenLoopChargesStallFromDueTime() {
  constexpr int64_t kMs = 1'000'000;
  FakeClock clock;
  const size_t stalled = 5;
  const auto timings = RunOpenLoop(clock, 0, kMs, 20, 1, [&](size_t i, size_t) {
    clock.now += i == stalled ? 10 * kMs : kMs / 10;  // injected 10 ms stall
    return true;
  });
  EXPECT(timings.size() == 20);
  // Before the stall: on time, 0.1 ms each.
  EXPECT(timings[4].late_ms() == 0);
  EXPECT(std::abs(timings[4].latency_ms() - 0.1) < 1e-9);
  // The stalled request: 10 ms from its due time.
  EXPECT(std::abs(timings[stalled].latency_ms() - 10.0) < 1e-9);
  // The next request was due at 6 ms but could only go out at 15 ms: its
  // latency from due time carries the 9 ms wait; lateness reports it.
  EXPECT(std::abs(timings[6].late_ms() - 9.0) < 1e-9);
  EXPECT(std::abs(timings[6].latency_ms() - 9.1) < 1e-9);
  // Service time alone (the closed-loop view) would have hidden the wait.
  EXPECT(std::abs(1e-6 * static_cast<double>(timings[6].done_ns - timings[6].sent_ns) -
                  0.1) < 1e-9);
  // The backlog drains at 0.9 ms per request: request 15 is still 0.9 ms
  // late, request 16 is back on schedule.
  EXPECT(std::abs(timings[15].late_ms() - 0.9) < 1e-9);
  EXPECT(timings[16].late_ms() == 0);
  // Due times follow the schedule whatever happened before.
  for (size_t i = 0; i < timings.size(); ++i) {
    EXPECT(timings[i].due_ns == static_cast<int64_t>(i) * kMs);
  }
}

void TestOpenLoopRealClockManyWorkers() {
  const SteadyClock clock;
  std::atomic<int> calls{0};
  const auto timings = RunOpenLoop(clock, clock.Now(), 200'000, 50, 3,
                                   [&](size_t, size_t worker) {
                                     ++calls;
                                     return worker < 3;
                                   });
  EXPECT(calls == 50);
  for (const auto& t : timings) {
    EXPECT(t.sent && t.ok);
    EXPECT(t.sent_ns >= t.due_ns && t.done_ns >= t.sent_ns);
  }
}

void TestCorruptedOutputsFail() {
  const std::string body = "{\"domain\":\"Banks\",\"k_coverage\":[[0.5]]}\n";
  const uint64_t good = Digest(body);
  {
    OutputCheck check;
    check.Check("spread/banks/phone", good, Digest(body));
    EXPECT(check.attempted() == 1 && check.failed() == 0);
  }
  {  // One flipped byte in the output.
    std::string corrupted = body;
    corrupted[20] ^= 1;
    OutputCheck check;
    check.Check("spread/banks/phone", good, Digest(corrupted));
    EXPECT(check.attempted() == 1 && check.failed() == 1);
    EXPECT(!check.problems().empty());
  }
  {  // A corrupted recorded digest.
    OutputCheck check;
    check.Check("spread/banks/phone", good ^ 0x10, Digest(body));
    EXPECT(check.failed() == 1);
  }
  {  // A missing expectation is a failure, not a pass.
    OutputCheck check;
    check.Check("spread/banks/phone", std::nullopt, Digest(body));
    EXPECT(check.failed() == 1);
  }
  {  // A digest file with a damaged line loses that entry, which then fails.
    const std::string path = "perfbench_selftest_digests.txt";
    {
      std::ofstream out(path);
      out << "# comment\nscan/banks/phone " << Hex(good) << "\nscan/banks/homepage\n";
    }
    const auto digests = LoadDigests(path);
    std::remove(path.c_str());
    EXPECT(Lookup(digests, "scan/banks/phone") == good);
    EXPECT(!Lookup(digests, "scan/banks/homepage").has_value());
    OutputCheck check;
    check.Check("scan/banks/homepage", Lookup(digests, "scan/banks/homepage"), good);
    EXPECT(check.failed() == 1);
  }
  {  // Failures without digests count against attempted.
    OutputCheck check;
    check.Pass();
    check.Fail("request 7", "status 503");
    EXPECT(check.attempted() == 2 && check.failed() == 1);
  }
}

void TestSpanSelfTime() {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.set_enabled(true);
  {
    const Span outer("test.outer", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      const Span inner("test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  tracer.set_enabled(false);
  { const Span disabled("test.disabled"); }
  const auto totals = tracer.Totals();
  const SpanTotals& outer = totals.at("test.outer");
  const SpanTotals& inner = totals.at("test.inner");
  EXPECT(outer.count == 1 && inner.count == 1);
  EXPECT(outer.child_ns == inner.total_ns);
  EXPECT(outer.self_ns() == outer.total_ns - inner.total_ns);
  EXPECT(outer.self_ns() >= 2'000'000 && inner.total_ns >= 5'000'000);
  EXPECT(totals.count("test.disabled") == 0);
  EXPECT(tracer.stored() == 2);
  const std::string path = "perfbench_selftest_trace.json";
  EXPECT(tracer.WriteChromeTrace(path));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT(text.find("\"traceEvents\"") != std::string::npos);
  EXPECT(text.find("\"name\":\"test.inner\"") != std::string::npos);
  EXPECT(text.find("\"run\":7") != std::string::npos);
  tracer.Reset();
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileMatchesExactSort();
  perfbench::TestOpenLoopChargesStallFromDueTime();
  perfbench::TestOpenLoopRealClockManyWorkers();
  perfbench::TestCorruptedOutputsFail();
  perfbench::TestSpanSelfTime();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all tests passed\n");
  return 0;
}
