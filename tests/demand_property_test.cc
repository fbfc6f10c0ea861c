// Property suite for the demand estimator: on randomly generated,
// randomly shuffled event streams, the estimator must agree with a
// brute-force implementation of the paper's unique-cookie rules, and be
// order-independent.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "traffic/demand.h"
#include "util/rng.h"

namespace wsd {
namespace {

struct RandomLog {
  std::vector<VisitEvent> events;
  uint32_t num_entities;
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
// (entity, month, cookie); browse counts unique (entity, cookie).
void BruteForce(const RandomLog& log, std::vector<double>* search,
                std::vector<double>* browse) {
  std::set<std::tuple<uint32_t, uint8_t, uint64_t>> search_keys;
  std::set<std::tuple<uint32_t, uint64_t>> browse_keys;
  search->assign(log.num_entities, 0.0);
  browse->assign(log.num_entities, 0.0);
  for (const VisitEvent& event : log.events) {
    auto key = ParseEntityUrl(event.url);
    if (!key.has_value() || key->site != TrafficSite::kYelp) continue;
    if (event.channel == TrafficChannel::kSearch) {
      if (search_keys
              .insert({key->entity_index, event.month, event.cookie})
              .second) {
        (*search)[key->entity_index] += 1.0;
      }
    } else {
      if (browse_keys.insert({key->entity_index, event.cookie}).second) {
        (*browse)[key->entity_index] += 1.0;
      }
    }
  }
}

class DemandEstimatorProperty : public ::testing::TestWithParam<uint64_t> {
};

void ExpectMatchesBruteForce(const RandomLog& log) {
  DemandEstimator estimator(TrafficSite::kYelp, log.num_entities);
  for (const VisitEvent& event : log.events) estimator.Consume(event);
  const DemandTable table = estimator.Finalize();

  std::vector<double> search, browse;
  BruteForce(log, &search, &browse);
  ASSERT_EQ(table.search_demand.size(), search.size());
  for (uint32_t e = 0; e < log.num_entities; ++e) {
    EXPECT_DOUBLE_EQ(table.search_demand[e], search[e]) << "entity " << e;
    EXPECT_DOUBLE_EQ(table.browse_demand[e], browse[e]) << "entity " << e;
  }
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

INSTANTIATE_TEST_SUITE_P(Seeds, DemandEstimatorProperty,
                         ::testing::Range<uint64_t>(500, 525));

}  // namespace
}  // namespace wsd
