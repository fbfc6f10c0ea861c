// Property suite for the demand estimator: on randomly generated,
// randomly shuffled event streams, the estimator must agree with a
// brute-force implementation of the paper's unique-cookie rules, and be
// order-independent. A byte count bounds the memory its kept keys take.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "traffic/demand.h"
#include "util/rng.h"

// --- Heap byte counting hook (for the key-store memory test) ---
//
// Replaces global operator new/delete with malloc/free plus a size header,
// and tracks live and peak requested bytes on the thread that armed the
// count, so the override is inert outside that test.
namespace {
constexpr size_t kHeader = alignof(std::max_align_t);
thread_local bool g_count_bytes = false;
thread_local int64_t g_live_bytes = 0;
thread_local int64_t g_peak_bytes = 0;

struct ByteCountGuard {
  ByteCountGuard() {
    g_live_bytes = 0;
    g_peak_bytes = 0;
    g_count_bytes = true;
  }
  ~ByteCountGuard() { g_count_bytes = false; }
};

void* CountedAlloc(size_t size) {
  auto* base = static_cast<unsigned char*>(std::malloc(kHeader + size));
  if (base == nullptr) throw std::bad_alloc();
  *reinterpret_cast<size_t*>(base) = size;
  if (g_count_bytes) {
    g_live_bytes += static_cast<int64_t>(size);
    g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  }
  return base + kHeader;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - kHeader;
  if (g_count_bytes) {
    g_live_bytes -= static_cast<int64_t>(*reinterpret_cast<size_t*>(base));
  }
  std::free(base);
}
}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace wsd {
namespace {

struct RandomLog {
  std::vector<VisitEvent> events;
  uint32_t num_entities;
  TrafficSite site = TrafficSite::kYelp;
};

// `months` bounds the month byte: 12 as the generator emits, or 256 for
// any byte the estimator must also accept.
RandomLog MakeRandomLog(uint64_t seed, uint32_t months = 12) {
  Rng rng(seed);
  RandomLog log;
  log.num_entities = 20 + static_cast<uint32_t>(rng.Uniform(50));
  const int n = 200 + static_cast<int>(rng.Uniform(600));
  for (int i = 0; i < n; ++i) {
    VisitEvent event;
    event.cookie = 1 + rng.Uniform(40);  // small pool: many collisions
    event.month = static_cast<uint8_t>(rng.Uniform(months));
    event.channel = rng.Bernoulli(0.5) ? TrafficChannel::kSearch
                                       : TrafficChannel::kBrowse;
    const uint32_t entity =
        static_cast<uint32_t>(rng.Uniform(log.num_entities));
    // 10% noise URLs that must be skipped.
    event.url = rng.Bernoulli(0.1)
                    ? "http://www.yelp.com/search?find_desc=pizza"
                    : EntityUrl(TrafficSite::kYelp, entity,
                                static_cast<uint32_t>(rng.Uniform(2)));
    log.events.push_back(std::move(event));
  }
  return log;
}

// Brute force per footnote 2 of the paper: search counts unique
// (entity, month, cookie); browse counts unique (entity, cookie). A URL
// that names no entity of the log's site within its population is
// skipped.
struct BruteForceTable {
  std::vector<double> search;
  std::vector<double> browse;
  uint64_t skipped = 0;
};

BruteForceTable BruteForce(const RandomLog& log) {
  std::set<std::tuple<uint32_t, uint8_t, uint64_t>> search_keys;
  std::set<std::tuple<uint32_t, uint64_t>> browse_keys;
  BruteForceTable table;
  table.search.assign(log.num_entities, 0.0);
  table.browse.assign(log.num_entities, 0.0);
  for (const VisitEvent& event : log.events) {
    auto key = ParseEntityUrl(event.url);
    if (!key.has_value() || key->site != log.site ||
        key->entity_index >= log.num_entities) {
      ++table.skipped;
      continue;
    }
    if (event.channel == TrafficChannel::kSearch) {
      if (search_keys
              .insert({key->entity_index, event.month, event.cookie})
              .second) {
        table.search[key->entity_index] += 1.0;
      }
    } else {
      if (browse_keys.insert({key->entity_index, event.cookie}).second) {
        table.browse[key->entity_index] += 1.0;
      }
    }
  }
  return table;
}

class DemandEstimatorProperty : public ::testing::TestWithParam<uint64_t> {
};

void ExpectTableMatchesBruteForce(const RandomLog& log,
                                  const DemandTable& table) {
  const BruteForceTable want = BruteForce(log);
  ASSERT_EQ(table.search_demand.size(), want.search.size());
  ASSERT_EQ(table.browse_demand.size(), want.browse.size());
  for (uint32_t e = 0; e < log.num_entities; ++e) {
    EXPECT_DOUBLE_EQ(table.search_demand[e], want.search[e]) << "entity " << e;
    EXPECT_DOUBLE_EQ(table.browse_demand[e], want.browse[e]) << "entity " << e;
  }
  EXPECT_EQ(table.events_consumed, log.events.size());
  EXPECT_EQ(table.events_skipped, want.skipped);
}

void ExpectMatchesBruteForce(const RandomLog& log) {
  DemandEstimator estimator(log.site, log.num_entities);
  for (const VisitEvent& event : log.events) estimator.Consume(event);
  ExpectTableMatchesBruteForce(log, estimator.Finalize());
}

TEST_P(DemandEstimatorProperty, MatchesBruteForce) {
  ExpectMatchesBruteForce(MakeRandomLog(GetParam()));
}

// The estimator takes the month as an opaque byte: months past 11 are
// distinct months, so a scheme that buckets 12 months must fail here.
TEST_P(DemandEstimatorProperty, AnyMonthByteMatchesBruteForce) {
  RandomLog log = MakeRandomLog(GetParam(), 256);
  log.events[0].month = 0;
  log.events[1].month = 255;
  ExpectMatchesBruteForce(log);
}

TEST_P(DemandEstimatorProperty, OrderIndependent) {
  RandomLog log = MakeRandomLog(GetParam());
  DemandEstimator forward(TrafficSite::kYelp, log.num_entities);
  for (const VisitEvent& event : log.events) forward.Consume(event);
  const DemandTable a = forward.Finalize();

  Rng rng(GetParam() ^ 0xf00d);
  rng.Shuffle(log.events);
  DemandEstimator shuffled(TrafficSite::kYelp, log.num_entities);
  for (const VisitEvent& event : log.events) shuffled.Consume(event);
  const DemandTable b = shuffled.Finalize();

  EXPECT_EQ(a.search_demand, b.search_demand);
  EXPECT_EQ(a.browse_demand, b.browse_demand);
  EXPECT_EQ(a.events_skipped, b.events_skipped);
}

// Clicks repeat back to back 1-3 times, as the generator emits a
// visitor's repeats, with the other channel's clicks interleaved between
// them (sometimes the same click on the other channel). A repeat may move
// to another month: a new search key, the same browse key.
TEST_P(DemandEstimatorProperty, BackToBackRepeatsMatchBruteForce) {
  const RandomLog base = MakeRandomLog(GetParam());
  RandomLog log;
  log.num_entities = base.num_entities;
  Rng rng(GetParam() ^ 0x5e9ea7);
  for (const VisitEvent& click : base.events) {
    VisitEvent event = click;
    const uint64_t copies = 1 + rng.Uniform(3);
    for (uint64_t c = 0; c < copies; ++c) {
      if (c > 0 && rng.Bernoulli(0.25)) {
        event.month = static_cast<uint8_t>(rng.Uniform(12));
      }
      log.events.push_back(event);
      if (rng.Bernoulli(0.4)) {
        VisitEvent other = rng.Bernoulli(0.5)
                               ? event
                               : base.events[rng.Uniform(base.events.size())];
        other.channel = event.channel == TrafficChannel::kSearch
                            ? TrafficChannel::kBrowse
                            : TrafficChannel::kSearch;
        log.events.push_back(std::move(other));
      }
    }
  }
  ExpectMatchesBruteForce(log);
}

// The estimator keeps the last two distinct URLs it parsed, and a click
// on either skips only the parse. An Amazon estimator gets one reused
// event, its URL rewritten in place between calls, on both channels.
// Both forms of entity 3 cycle with entity 12's first form (the same
// length as entity 3's), so the two slots evict on every click; an IMDb
// URL with index 3, an index past the population and a noise URL each
// come twice in a row, so their second click hits and must still be
// skipped; each form of entity 3 also comes twice in a row.
TEST_P(DemandEstimatorProperty, MemoHitKeepsEveryCheck) {
  constexpr uint32_t kEntities = 40;
  const std::string form0 = EntityUrl(TrafficSite::kAmazon, 3, 0);
  const std::string form1 = EntityUrl(TrafficSite::kAmazon, 3, 1);
  const std::string other = EntityUrl(TrafficSite::kAmazon, 12, 0);
  ASSERT_EQ(other.size(), form0.size());
  const std::vector<std::vector<std::string>> segments = {
      {form0, form1, other, form0, form1, other},
      {EntityUrl(TrafficSite::kImdb, 3), EntityUrl(TrafficSite::kImdb, 3)},
      {EntityUrl(TrafficSite::kAmazon, kEntities + 2, 1),
       EntityUrl(TrafficSite::kAmazon, kEntities + 2, 1)},
      {"http://www.amazon.com/gp/help/customer/display.html",
       "http://www.amazon.com/gp/help/customer/display.html"},
      {form0, form0},
      {form1, form1},
  };
  Rng rng(GetParam() ^ 0x3e305);
  RandomLog log;
  log.num_entities = kEntities;
  log.site = TrafficSite::kAmazon;
  for (int round = 0; round < 20; ++round) {
    std::vector<size_t> order = {0, 1, 2, 3, 4, 5};
    rng.Shuffle(order);
    for (size_t s : order) {
      for (const std::string& url : segments[s]) {
        VisitEvent event;
        event.cookie = 1 + rng.Uniform(6);  // small pool: many repeats
        event.month = static_cast<uint8_t>(rng.Uniform(3));
        event.channel = rng.Bernoulli(0.5) ? TrafficChannel::kSearch
                                           : TrafficChannel::kBrowse;
        event.url = url;
        log.events.push_back(std::move(event));
      }
    }
  }
  ASSERT_EQ(BruteForce(log).skipped, 20u * 6);

  DemandEstimator estimator(TrafficSite::kAmazon, kEntities);
  VisitEvent reused;
  reused.url.reserve(64);
  for (const VisitEvent& event : log.events) {
    reused.cookie = event.cookie;
    reused.month = event.month;
    reused.channel = event.channel;
    reused.url.assign(event.url);
    estimator.Consume(reused);
  }
  ExpectTableMatchesBruteForce(log, estimator.Finalize());
}

// One entity holds most of a large shuffled log, so its run alone has
// more than 100,000 keys per channel: the count table grows past every
// small run's size and probes long chains. Cookies differ only in their
// high 32 bits, so a hash of the low bits would put every key in one
// slot; the month byte takes all 256 values on both channels.
TEST(DemandEstimatorSkew, HeavyRunMatchesBruteForce) {
  Rng rng(2026);
  RandomLog log;
  log.num_entities = 16;
  constexpr uint32_t kHeavy = 5;
  for (int i = 0; i < 280000; ++i) {
    VisitEvent event;
    event.cookie = (rng.Uniform(20000) << 32) | 0x5eed;
    event.month = static_cast<uint8_t>(i / 2);  // 0-255 on each channel
    event.channel =
        i % 2 == 0 ? TrafficChannel::kSearch : TrafficChannel::kBrowse;
    const uint32_t entity =
        i % 10 == 0 ? static_cast<uint32_t>(rng.Uniform(log.num_entities))
                    : kHeavy;
    event.url = EntityUrl(TrafficSite::kYelp, entity);
    log.events.push_back(std::move(event));
  }
  rng.Shuffle(log.events);

  const BruteForceTable want = BruteForce(log);
  ASSERT_GE(want.search[kHeavy], 100000.0);  // distinct keys, not just clicks
  ASSERT_LT(want.browse[kHeavy], 20001.0);   // browse dedups the year
  ExpectMatchesBruteForce(log);
}

// Every key is distinct and clicked 1-3 times back to back, the two
// channels alternating, so the estimator keeps exactly kKeys keys per
// channel: 13 bytes each on search (cookie, entity, month) and 12 on
// browse. Its peak heap, Finalize included, must stay under 14 bytes per
// kept key plus one partly filled block per array (three search arrays,
// two browse) and 24 bytes per entity for Finalize's offsets and the two
// demand vectors. 16-byte keys in a doubling vector need 2 MiB of
// capacity per channel here even with the repeats dropped, over 21 bytes
// per kept key.
TEST(DemandEstimatorMemory, KeptKeysCostUnderFourteenBytes) {
  constexpr uint32_t kEntities = 1000;
  constexpr uint64_t kKeys = 100000;  // per channel
  std::vector<std::string> urls;
  for (uint32_t e = 0; e < kEntities; ++e) {
    urls.push_back(EntityUrl(TrafficSite::kYelp, e));
  }
  VisitEvent event;
  event.url.reserve(64);

  DemandTable table;
  {
    const ByteCountGuard guard;
    DemandEstimator estimator(TrafficSite::kYelp, kEntities);
    for (uint64_t i = 0; i < 2 * kKeys; ++i) {
      const uint64_t key = i / 2;
      event.channel = i % 2 == 0 ? TrafficChannel::kSearch
                                 : TrafficChannel::kBrowse;
      event.cookie = key + 1;
      event.url = urls[key % kEntities];
      for (uint64_t c = 0; c <= i % 3; ++c) {
        // Browse keys carry no month, so every copy repeats the key.
        event.month = static_cast<uint8_t>(
            event.channel == TrafficChannel::kSearch ? key % 12 : c);
        estimator.Consume(event);
      }
    }
    table = estimator.Finalize();
  }
  const int64_t block_bytes =
      int64_t{DemandEstimator::kKeysPerBlock} * (8 + 4 + 1 + 8 + 4);
  const int64_t bound = 14 * int64_t{2 * kKeys} + block_bytes +
                        24 * int64_t{kEntities};
  EXPECT_LT(g_peak_bytes, bound)
      << static_cast<double>(g_peak_bytes) / (2 * kKeys)
      << " bytes per kept key";
  EXPECT_GT(g_peak_bytes, 12 * int64_t{2 * kKeys});

  // Every entity got kKeys / kEntities distinct cookies on each channel.
  for (uint32_t e = 0; e < kEntities; ++e) {
    ASSERT_EQ(table.search_demand[e], double{kKeys / kEntities}) << e;
    ASSERT_EQ(table.browse_demand[e], double{kKeys / kEntities}) << e;
  }
  EXPECT_EQ(table.events_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemandEstimatorProperty,
                         ::testing::Range<uint64_t>(500, 525));

}  // namespace
}  // namespace wsd
