// Concurrency stress for the serve-layer caches: 8 threads hammer a
// ResponseCache, a ScanHandleCache and its analysis memo with mixed
// hit / miss / evict traffic under deliberately tiny budgets. The
// assertions are coarse arithmetic invariants; the real payload is the
// interleavings — built with -DWSD_SANITIZE=thread this is the dynamic
// (TSan) probe for the same lock discipline that clang -Wthread-safety
// checks statically.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/study.h"
#include "serve/endpoints.h"
#include "serve/scan_cache.h"
#include "util/rng.h"

namespace wsd {
namespace {

TEST(ServeCacheStress, ResponseCacheMixedHitMissEvict) {
  // A few entries worth of budget over a 16-key space: hits, misses and
  // evictions all stay hot for the whole run.
  ServeContext ctx;
  ResponseCache& cache = ctx.responses;
  cache.set_max_bytes(512);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr int kKeySpace = 16;
  std::atomic<uint64_t> ops{0};
  std::atomic<int> bad_bodies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eedULL + static_cast<uint64_t>(t));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int k = static_cast<int>(rng.Uniform(kKeySpace));
        const std::string key = "/spread?k=" + std::to_string(k);
        const size_t body_size = 48 + 8 * static_cast<size_t>(k);
        const char fill = static_cast<char>('a' + k % 26);
        ops.fetch_add(1);
        const auto rendered = cache.Get(key, [&]() -> StatusOr<RenderedBody> {
          return RenderedBody{std::string(body_size, fill), "application/json"};
        });
        // Computed, waited for or hit, the body must be the exact one
        // rendered for this key, not a torn or mismatched one.
        if (!rendered.ok() || (*rendered)->body.size() != body_size ||
            (*rendered)->body.find_first_not_of(fill) != std::string::npos) {
          bad_bodies.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_bodies.load(), 0);
  const ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, ops.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u) << "budget too large to exercise eviction";
  EXPECT_LE(stats.bytes, cache.max_bytes());
  EXPECT_GT(stats.entries, 0u);
}

TEST(ServeCacheStress, ScanHandleCacheMixedHitMissEvict) {
  StudyOptions options;
  options.num_entities = 200;
  options.threads = 1;
  options.seed = 7;
  // One byte of budget: every admission is oversized, only the MRU key
  // survives, and waiters routinely wake after their entry is evicted.
  ScanHandleCache cache(options, 1);
  const std::vector<ScanHandleCache::Key> keys = {
      {Domain::kBooks, Attribute::kIsbn, options.seed, options.scale},
      {Domain::kRestaurants, Attribute::kPhone, options.seed, options.scale},
      {Domain::kBooks, Attribute::kIsbn, options.seed + 1, options.scale},
  };
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4;
  std::atomic<uint64_t> ops{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xabcdULL + static_cast<uint64_t>(t));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto& key = keys[rng.Uniform(keys.size())];
        ops.fetch_add(1);
        auto result = cache.Get(key);
        if (!result.ok() || *result == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  const ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, ops.load());
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.entries, 1u) << "1-byte budget keeps at most the MRU entry";
}

TEST(ServeCacheStress, AnalysisMemoMixedComputeEvict) {
  StudyOptions options;
  options.num_entities = 200;
  options.threads = 1;
  options.seed = 7;
  // One byte of budget again: entries, and the memos that go with them,
  // are evicted while other threads compute into them or wait on them.
  ScanHandleCache cache(options, 1);
  const std::vector<ScanHandleCache::Key> keys = {
      {Domain::kBooks, Attribute::kIsbn, options.seed, options.scale},
      {Domain::kBanks, Attribute::kPhone, options.seed, options.scale},
  };
  // The reference results, computed once with nothing else running.
  std::vector<std::shared_ptr<const CoverageCurve>> curves;
  std::vector<std::shared_ptr<const SetCoverCurve>> covers;
  std::vector<std::shared_ptr<const GraphMetricsRow>> rows;
  for (const auto& key : keys) {
    auto curve = cache.KCoverage(key);
    auto cover = cache.SetCover(key);
    auto row = cache.GraphMetrics(key);
    ASSERT_TRUE(curve.ok() && cover.ok() && row.ok());
    curves.push_back(*curve);
    covers.push_back(*cover);
    rows.push_back(*row);
  }
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 6;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x3e3eULL + static_cast<uint64_t>(t));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const size_t i = rng.Uniform(keys.size());
        switch (rng.Uniform(3)) {
          case 0: {
            auto curve = cache.KCoverage(keys[i]);
            if (!curve.ok()) {
              failures.fetch_add(1);
            } else if ((*curve)->k_coverage != curves[i]->k_coverage) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 1: {
            auto cover = cache.SetCover(keys[i]);
            if (!cover.ok()) {
              failures.fetch_add(1);
            } else if ((*cover)->greedy_coverage !=
                       covers[i]->greedy_coverage) {
              mismatches.fetch_add(1);
            }
            break;
          }
          default: {
            auto row = cache.GraphMetrics(keys[i]);
            if (!row.ok()) {
              failures.fetch_add(1);
            } else if ((*row)->diameter != rows[i]->diameter ||
                       (*row)->num_edges != rows[i]->num_edges) {
              mismatches.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a memoized result differs from a fresh one";
  const ScanHandleCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.entries, 1u) << "1-byte budget keeps at most the MRU entry";
}

}  // namespace
}  // namespace wsd
