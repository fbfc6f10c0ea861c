// Unit tests for the observability layer (util/metrics.h): exact
// concurrent counter sums, monotone histogram quantiles, exporter
// round-trips, and registry identity/reset semantics.

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace wsd {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(CounterTest, IncrementByDeltaAndReset) {
  Counter counter;
  counter.Increment(41);
  counter.Increment();
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAndConcurrentAddBalanceOut) {
  Gauge gauge;
  gauge.Set(100.0);
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kOps; ++i) {
        gauge.Add(1.0);
        gauge.Add(-1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 100.0);
}

TEST(LatencyHistogramTest, CountSumMinMax) {
  LatencyHistogram hist;
  hist.Record(0.001);
  hist.Record(0.010);
  hist.Record(0.100);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_NEAR(hist.sum_seconds(), 0.111, 1e-9);
  EXPECT_DOUBLE_EQ(hist.min_seconds(), 0.001);
  EXPECT_DOUBLE_EQ(hist.max_seconds(), 0.100);
}

TEST(LatencyHistogramTest, QuantilesAreMonotone) {
  LatencyHistogram hist;
  // A spread covering several log2 buckets, recorded out of order.
  for (double s : {0.5, 0.000001, 0.02, 0.0001, 0.25, 0.003, 0.07,
                   0.00004, 1.5, 0.009}) {
    hist.Record(s);
  }
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = hist.Quantile(q);
    EXPECT_GE(v, prev) << "quantile " << q;
    prev = v;
  }
  // The top quantile is the exact max, not a bucket bound.
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), hist.max_seconds());
}

TEST(LatencyHistogramTest, EmptyHistogramIsAllZeroes) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.min_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max_seconds(), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kRecords; ++i) hist.Record(0.001);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kRecords);
}

TEST(ScopedTimerTest, RecordsOnDestruction) {
  LatencyHistogram hist;
  {
    ScopedTimer timer(hist);
    EXPECT_EQ(hist.count(), 0u);
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.sum_seconds(), 0.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("wsd.test.counter");
  Counter& b = registry.GetCounter("wsd.test.counter");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(&registry.GetGauge("wsd.test.gauge"),
            &registry.GetGauge("wsd.test.gauge"));
  EXPECT_EQ(&registry.GetHistogram("wsd.test.hist"),
            &registry.GetHistogram("wsd.test.hist"));
}

TEST(MetricsRegistryTest, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, NamesAreSortedPerKind) {
  MetricsRegistry registry;
  registry.GetCounter("wsd.b.second");
  registry.GetCounter("wsd.a.first");
  registry.GetGauge("wsd.g.gauge");
  registry.GetHistogram("wsd.h.hist");
  EXPECT_EQ(registry.CounterNames(),
            (std::vector<std::string>{"wsd.a.first", "wsd.b.second"}));
  EXPECT_EQ(registry.GaugeNames(),
            (std::vector<std::string>{"wsd.g.gauge"}));
  EXPECT_EQ(registry.HistogramNames(),
            (std::vector<std::string>{"wsd.h.hist"}));
}

TEST(MetricsRegistryTest, JsonExportRoundTripsNamesAndValues) {
  MetricsRegistry registry;
  registry.GetCounter("wsd.scan.pages").Increment(123);
  registry.GetGauge("wsd.pool.queue_depth").Set(4.5);
  registry.GetHistogram("wsd.scan.shard_seconds").Record(0.002);
  const std::string json = registry.ToJson();
  // Every registered name must appear, verbatim and quoted.
  EXPECT_NE(json.find("\"wsd.scan.pages\": 123"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wsd.pool.queue_depth\": 4.5"), std::string::npos);
  EXPECT_NE(json.find("\"wsd.scan.shard_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // Sections present even when a kind is empty.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExportRoundTripsSanitizedNames) {
  MetricsRegistry registry;
  registry.GetCounter("wsd.scan.pages").Increment(7);
  registry.GetGauge("wsd.scan.scratch_bytes").Set(1000.0);
  registry.GetHistogram("wsd.graph.diameter_seconds").Record(0.05);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE wsd_scan_pages counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("wsd_scan_pages 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE wsd_scan_scratch_bytes gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE wsd_graph_diameter_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("wsd_graph_diameter_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("wsd_graph_diameter_seconds_count 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusBucketsAreCumulative) {
  MetricsRegistry registry;
  LatencyHistogram& hist = registry.GetHistogram("wsd.test.cumulative");
  hist.Record(0.000001);  // ~1us
  hist.Record(0.001);     // ~1ms
  hist.Record(0.1);       // ~100ms
  const std::string prom = registry.ToPrometheus();
  // The +Inf bucket must equal the total count.
  EXPECT_NE(prom.find("wsd_test_cumulative_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << prom;
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("wsd.test.c");
  Gauge& gauge = registry.GetGauge("wsd.test.g");
  LatencyHistogram& hist = registry.GetHistogram("wsd.test.h");
  counter.Increment(5);
  gauge.Set(2.0);
  hist.Record(0.01);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(hist.count(), 0u);
  // References stay valid and the names stay registered.
  counter.Increment();
  EXPECT_EQ(registry.GetCounter("wsd.test.c").value(), 1u);
  EXPECT_EQ(registry.CounterNames(),
            (std::vector<std::string>{"wsd.test.c"}));
}

}  // namespace
}  // namespace wsd
