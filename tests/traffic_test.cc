#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "traffic/demand.h"
#include "traffic/review_model.h"
#include "traffic/traffic_log.h"
#include "traffic/url_patterns.h"
#include "util/histogram.h"
#include "util/string_util.h"

// --- Allocation counting hook (for the warm-up allocation test) ---
//
// Replaces global operator new/delete with malloc/free plus a
// thread-local counter that only ticks while armed, so the override is
// inert outside that test.
namespace {
thread_local bool g_count_allocs = false;
thread_local uint64_t g_alloc_count = 0;

struct AllocCountGuard {
  AllocCountGuard() {
    g_alloc_count = 0;
    g_count_allocs = true;
  }
  ~AllocCountGuard() { g_count_allocs = false; }
};
}  // namespace

void* operator new(size_t size) {
  if (g_count_allocs) ++g_alloc_count;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace wsd {
namespace {

// ---------- URL patterns ----------

class UrlPatternRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UrlPatternRoundTrip, EntityUrlParsesBack) {
  const TrafficSite site = static_cast<TrafficSite>(GetParam());
  for (uint32_t idx : {0u, 7u, 123456u}) {
    for (uint32_t variant : {0u, 1u}) {
      const std::string url = EntityUrl(site, idx, variant);
      auto key = ParseEntityUrl(url);
      ASSERT_TRUE(key.has_value()) << url;
      EXPECT_EQ(key->site, site);
      EXPECT_EQ(key->entity_index, idx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, UrlPatternRoundTrip,
    ::testing::Values(static_cast<int>(TrafficSite::kAmazon),
                      static_cast<int>(TrafficSite::kYelp),
                      static_cast<int>(TrafficSite::kImdb)));

// The StrFormat formulas EntityUrl rendered with before it wrote digits
// in place; the reference for its bytes.
std::string FormatEntityUrl(TrafficSite site, uint32_t idx,
                            uint32_t variant) {
  switch (site) {
    case TrafficSite::kAmazon:
      return (variant % 2 == 0
                  ? std::string("http://www.amazon.com/gp/product/")
                  : std::string(
                        "http://www.amazon.com/some-product-title/dp/")) +
             StrFormat("B%09u", idx);
    case TrafficSite::kYelp:
      return "http://www.yelp.com/biz/" + StrFormat("biz-%06u", idx);
    case TrafficSite::kImdb:
      return "http://www.imdb.com/title/" + StrFormat("tt%07u", idx) + "/";
    case TrafficSite::kNumSites:
      break;
  }
  return {};
}

TEST(UrlPatternTest, EntityUrlMatchesFormatReference) {
  for (int s = 0; s < static_cast<int>(TrafficSite::kNumSites); ++s) {
    const TrafficSite site = static_cast<TrafficSite>(s);
    for (uint32_t idx :
         {0u, 9u, 10u, 999999u, 1000000u, 9999999u, 10000000u, 999999999u,
          1000000000u, UINT32_MAX}) {
      for (uint32_t variant : {0u, 1u}) {
        const std::string want = FormatEntityUrl(site, idx, variant);
        const std::string url = EntityUrl(site, idx, variant);
        EXPECT_EQ(url, want);
        std::string into = "stale contents";
        EntityUrlInto(site, idx, variant, &into);
        EXPECT_EQ(into, want);
        // An ASIN is 10 characters, so Amazon indices from 10^9 on do not
        // parse back; every Yelp and IMDb index does.
        const bool round_trips =
            site != TrafficSite::kAmazon || idx < 1000000000u;
        const auto key = ParseEntityUrl(url);
        ASSERT_EQ(key.has_value(), round_trips) << url;
        if (key.has_value()) {
          EXPECT_EQ(key->site, site) << url;
          EXPECT_EQ(key->entity_index, idx) << url;
        }
      }
    }
  }
}

TEST(UrlPatternTest, MatchesPaperPatterns) {
  // amazon.com/gp/product/[ID] and amazon.com/*/dp/[ID]
  auto a = ParseEntityUrl("http://www.amazon.com/gp/product/B000000042");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->site, TrafficSite::kAmazon);
  EXPECT_EQ(a->entity_index, 42u);
  auto b = ParseEntityUrl(
      "https://www.amazon.com/Some-Title-Here/dp/B000000007?ref=sr");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->entity_index, 7u);
  // yelp.com/biz/[ID]
  auto c = ParseEntityUrl("http://yelp.com/biz/biz-000123");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->site, TrafficSite::kYelp);
  EXPECT_EQ(c->entity_index, 123u);
  // imdb.com/title/tt[ID]
  auto d = ParseEntityUrl("http://www.imdb.com/title/tt0000099/");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->site, TrafficSite::kImdb);
  EXPECT_EQ(d->entity_index, 99u);
}

TEST(UrlPatternTest, RejectsNonEntityUrls) {
  EXPECT_FALSE(ParseEntityUrl("http://www.amazon.com/gp/help/x").has_value());
  EXPECT_FALSE(ParseEntityUrl("http://www.yelp.com/search?q=pizza")
                   .has_value());
  EXPECT_FALSE(ParseEntityUrl("http://www.imdb.com/name/nm0000001/")
                   .has_value());
  EXPECT_FALSE(ParseEntityUrl("http://other.com/biz/biz-000001").has_value());
  EXPECT_FALSE(ParseEntityUrl("not a url").has_value());
  // Malformed ids.
  EXPECT_FALSE(ParseEntityUrl("http://yelp.com/biz/mario-grill").has_value());
  EXPECT_FALSE(
      ParseEntityUrl("http://www.imdb.com/title/ttXYZ/").has_value());
}

// ---------- population model ----------

TEST(ReviewModelTest, PopulationShapes) {
  TrafficSiteParams params = DefaultTrafficParams(TrafficSite::kYelp);
  params.num_entities = 5000;
  const SitePopulation pop = BuildPopulation(params, 3);
  ASSERT_EQ(pop.popularity.size(), 5000u);
  ASSERT_EQ(pop.reviews.size(), 5000u);

  // Popularity is rank-decreasing with the configured mean.
  EXPECT_GT(pop.popularity[0], pop.popularity[4999]);
  RunningStats stats;
  for (double p : pop.popularity) stats.Add(p);
  EXPECT_NEAR(stats.mean(), params.mean_visits, params.mean_visits * 0.02);

  // Browse intensity preserves total volume.
  RunningStats browse;
  for (double p : pop.browse_intensity) browse.Add(p);
  EXPECT_NEAR(browse.mean(), params.mean_visits,
              params.mean_visits * 0.02);

  // Reviews correlate with popularity: head decile has more than tail.
  double head = 0, tail = 0;
  for (uint32_t i = 0; i < 500; ++i) head += pop.reviews[i];
  for (uint32_t i = 4500; i < 5000; ++i) tail += pop.reviews[i];
  EXPECT_GT(head, tail * 2);
}

TEST(ReviewModelTest, DefaultsAreCalibratedPerSite) {
  const auto yelp = DefaultTrafficParams(TrafficSite::kYelp);
  const auto amazon = DefaultTrafficParams(TrafficSite::kAmazon);
  const auto imdb = DefaultTrafficParams(TrafficSite::kImdb);
  // IMDb sharpest demand, Yelp flattest (Fig 6).
  EXPECT_GT(imdb.demand_zipf_s, amazon.demand_zipf_s);
  EXPECT_GT(amazon.demand_zipf_s, yelp.demand_zipf_s);
  // IMDb's hump needs a knee; the others are pure power laws.
  EXPECT_LT(imdb.review_knee_visits, 1e6);
  EXPECT_NE(imdb.review_tail_gamma, imdb.review_head_gamma);
}

// ---------- log generation + demand estimation ----------

TEST(TrafficLogTest, EventsParseAndCountsMatchIntensity) {
  TrafficSiteParams params = DefaultTrafficParams(TrafficSite::kYelp);
  params.num_entities = 2000;
  const SitePopulation pop = BuildPopulation(params, 5);
  TrafficLogOptions options;
  const TrafficLogGenerator generator(pop, options, 17);

  uint64_t events = 0, parseable = 0;
  generator.Generate(TrafficChannel::kSearch, [&](const VisitEvent& e) {
    ++events;
    EXPECT_LT(e.month, 12);
    EXPECT_NE(e.cookie, 0u);
    parseable += ParseEntityUrl(e.url).has_value();
  });
  EXPECT_GT(events, 0u);
  // ~2% noise URLs by default.
  EXPECT_NEAR(static_cast<double>(parseable) / static_cast<double>(events),
              0.98, 0.01);
  EXPECT_NEAR(static_cast<double>(events),
              generator.ExpectedEvents(TrafficChannel::kSearch),
              0.1 * generator.ExpectedEvents(TrafficChannel::kSearch));
}

// Heap allocations of Generate on both channels of every site, into a
// sink that parses each URL. Few visits per entity keep it quick.
uint64_t GenerateAndParseAllocations(uint32_t num_entities) {
  uint64_t allocs = 0;
  for (int s = 0; s < static_cast<int>(TrafficSite::kNumSites); ++s) {
    TrafficSiteParams params =
        DefaultTrafficParams(static_cast<TrafficSite>(s));
    params.num_entities = num_entities;
    params.mean_visits = 3.0;
    const SitePopulation pop = BuildPopulation(params, 5);
    const TrafficLogGenerator generator(pop, TrafficLogOptions{}, 17);
    uint64_t events = 0, parsed = 0;
    const std::function<void(const VisitEvent&)> sink =
        [&](const VisitEvent& e) {
          ++events;
          parsed += ParseEntityUrl(e.url).has_value();
        };
    {
      AllocCountGuard guard;
      generator.Generate(TrafficChannel::kSearch, sink);
      generator.Generate(TrafficChannel::kBrowse, sink);
      allocs += g_alloc_count;
    }
    EXPECT_GT(parsed, events / 2);
    EXPECT_LT(parsed, events);  // noise URLs are present and skipped
  }
  return allocs;
}

TEST(TrafficLogTest, GenerateAndParseAllocateOnlyAtWarmUp) {
  const uint64_t small = GenerateAndParseAllocations(2000);
  const uint64_t large = GenerateAndParseAllocations(20000);
  // Each Generate call reserves its two reused URL buffers and nothing
  // more: the count is a constant, not a function of the event count.
  EXPECT_EQ(small, large);
  EXPECT_LE(small, 12u);
}

TEST(DemandEstimatorTest, DeduplicatesCookiesPerPaperRules) {
  DemandEstimator estimator(TrafficSite::kYelp, 10);
  auto event = [](uint64_t cookie, uint8_t month, TrafficChannel channel,
                  uint32_t entity) {
    VisitEvent e;
    e.cookie = cookie;
    e.month = month;
    e.channel = channel;
    e.url = EntityUrl(TrafficSite::kYelp, entity);
    return e;
  };
  // Search: same cookie+month deduped; same cookie different month counts
  // twice (footnote 2: unique cookies *per month*).
  estimator.Consume(event(1, 0, TrafficChannel::kSearch, 3));
  estimator.Consume(event(1, 0, TrafficChannel::kSearch, 3));
  estimator.Consume(event(1, 1, TrafficChannel::kSearch, 3));
  estimator.Consume(event(2, 0, TrafficChannel::kSearch, 3));
  // Browse: same cookie deduped across the whole year.
  estimator.Consume(event(1, 0, TrafficChannel::kBrowse, 3));
  estimator.Consume(event(1, 5, TrafficChannel::kBrowse, 3));
  estimator.Consume(event(3, 2, TrafficChannel::kBrowse, 3));
  // Noise URL skipped.
  VisitEvent noise;
  noise.cookie = 9;
  noise.channel = TrafficChannel::kSearch;
  noise.url = "http://www.yelp.com/events";
  estimator.Consume(noise);

  const DemandTable table = estimator.Finalize();
  EXPECT_DOUBLE_EQ(table.search_demand[3], 3.0);
  EXPECT_DOUBLE_EQ(table.browse_demand[3], 2.0);
  EXPECT_EQ(table.events_consumed, 8u);
  EXPECT_EQ(table.events_skipped, 1u);
  EXPECT_DOUBLE_EQ(table.search_demand[0], 0.0);
}

TEST(DemandEstimatorTest, EstimatesTrackLatentPopularity) {
  TrafficSiteParams params = DefaultTrafficParams(TrafficSite::kImdb);
  params.num_entities = 1000;
  const SitePopulation pop = BuildPopulation(params, 7);
  const TrafficLogGenerator generator(pop, TrafficLogOptions{}, 23);
  DemandEstimator estimator(TrafficSite::kImdb, params.num_entities);
  generator.Generate(TrafficChannel::kSearch,
                     [&](const VisitEvent& e) { estimator.Consume(e); });
  const DemandTable table = estimator.Finalize();
  // Head entity demand must dominate deep-tail demand.
  double head = 0, tail = 0;
  for (uint32_t i = 0; i < 50; ++i) head += table.search_demand[i];
  for (uint32_t i = 950; i < 1000; ++i) tail += table.search_demand[i];
  EXPECT_GT(head, 10 * (tail + 1));
}

}  // namespace
}  // namespace wsd
