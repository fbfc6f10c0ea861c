// End-to-end tests of the Study driver at small scale, plus the
// calibration checks that pin the reproduction's shape anchors (loose
// tolerances; the benches verify the tight versions at full scale).

#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "extract/attribute_registry.h"
#include "traffic/demand.h"
#include "traffic/review_model.h"
#include "traffic/traffic_log.h"

namespace wsd {
namespace {

StudyOptions SmallOptions() {
  StudyOptions options;
  options.num_entities = 2500;
  options.scale = 1.0;
  options.seed = 11;
  options.threads = 2;
  return options;
}

// Shrink the web to test size while keeping defaults' shape parameters.
class StudySmall : public ::testing::Test {
 protected:
  StudySmall() : study_(SmallOptions()) {}

  StatusOr<ScanResult> ScanSmall(Domain domain, Attribute attr) {
    return study_.RunScan(domain, attr);
  }

  Study study_;
};

TEST(StudyOptionsTest, ScaledEntitiesFloorsAt64) {
  StudyOptions options;
  options.num_entities = 100;
  options.scale = 0.001;
  EXPECT_EQ(options.ScaledEntities(), 64u);
  options.scale = 2.0;
  EXPECT_EQ(options.ScaledEntities(), 200u);
}

TEST_F(StudySmall, SpreadCurveHasPaperShapeProperties) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto spread = study_.RunSpread(*scan);
  ASSERT_TRUE(spread.ok()) << spread.status();
  const CoverageCurve& curve = spread->curve;
  ASSERT_EQ(curve.k_coverage.size(), 10u);

  // Coverage rises with t, falls with k; the full web reaches 100% at
  // k=1 (every entity is somewhere).
  for (uint32_t k = 0; k < 10; ++k) {
    for (size_t i = 1; i < curve.t_values.size(); ++i) {
      ASSERT_GE(curve.k_coverage[k][i] + 1e-12, curve.k_coverage[k][i - 1]);
    }
  }
  for (uint32_t k = 1; k < 10; ++k) {
    for (size_t i = 0; i < curve.t_values.size(); ++i) {
      ASSERT_LE(curve.k_coverage[k][i], curve.k_coverage[k - 1][i] + 1e-12);
    }
  }
  EXPECT_NEAR(curve.k_coverage[0].back(), 1.0, 1e-9);
  // Head sites carry most entities at k=1 but corroboration (k=5) stays
  // far behind at the same t — the paper's central gap.
  const double k1_head = curve.k_coverage[0][5];  // some head prefix
  const double k5_head = curve.k_coverage[4][5];
  EXPECT_GT(k1_head, k5_head + 0.2);
}

TEST_F(StudySmall, ScanIsDeterministicAcrossRuns) {
  auto a = ScanSmall(Domain::kBanks, Attribute::kPhone);
  auto b = ScanSmall(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->table.num_hosts(), b->table.num_hosts());
  EXPECT_EQ(a->stats.entity_mentions, b->stats.entity_mentions);
  for (size_t i = 0; i < a->table.num_hosts(); ++i) {
    ASSERT_EQ(a->table.host(i).host, b->table.host(i).host);
    ASSERT_EQ(a->table.host(i).entities.size(),
              b->table.host(i).entities.size());
  }
}

TEST_F(StudySmall, ReviewSpreadProducesBothCurves) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kReviews);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto result = study_.RunReviewSpread(*scan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.review_pages, 0u);
  EXPECT_GT(result->page_curve.total_pages, 0u);
  // Page-level coverage lags site-level coverage at the same head t
  // (Fig 4(b) vs 4(a)).
  const size_t mid = result->site_curve.t_values.size() / 2;
  EXPECT_LT(result->page_curve.page_fraction[mid],
            result->site_curve.k_coverage[0][mid]);
  // Page fractions are monotone and end at 1.
  const auto& pf = result->page_curve.page_fraction;
  for (size_t i = 1; i < pf.size(); ++i) EXPECT_GE(pf[i] + 1e-12, pf[i - 1]);
  EXPECT_NEAR(pf.back(), 1.0, 1e-9);
}

TEST_F(StudySmall, SetCoverBeatsOrEqualsSizeOrdering) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto curve = study_.RunSetCover(*scan);
  ASSERT_TRUE(curve.ok());
  for (size_t i = 0; i < curve->t_values.size(); ++i) {
    EXPECT_GE(curve->greedy_coverage[i] + 1e-12, curve->size_coverage[i]);
  }
}

TEST_F(StudySmall, GraphMetricsMatchTable2Shape) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto row = study_.RunGraphMetrics(*scan);
  ASSERT_TRUE(row.ok()) << row.status();
  // Avg sites/entity tracks the Table 2 target (32) loosely.
  EXPECT_NEAR(row->avg_sites_per_entity, 32.0, 8.0);
  // Small diameter, giant component.
  EXPECT_GE(row->diameter, 2u);
  EXPECT_LE(row->diameter, 12u);
  EXPECT_GT(row->largest_component_entity_pct, 97.0);
  EXPECT_GE(row->num_components, 1u);
}

TEST_F(StudySmall, RobustnessSweepShape) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  auto sweep = study_.RunRobustness(*scan, 10);
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 11u);
  // Monotone non-increasing, never catastrophic (paper Fig 9).
  for (size_t k = 1; k < sweep->size(); ++k) {
    EXPECT_LE((*sweep)[k].largest_component_entity_fraction,
              (*sweep)[k - 1].largest_component_entity_fraction + 1e-12);
  }
  EXPECT_GT(sweep->back().largest_component_entity_fraction, 0.90);
}

TEST_F(StudySmall, MicrodataSpreadHasAdoptionFilteredShape) {
  auto scan = study_.Scan(Domain::kRestaurants, Attribute::kMicrodata);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_GT(scan->stats().entity_mentions, 0u);
  auto spread = study_.RunSpread(*scan);
  ASSERT_TRUE(spread.ok()) << spread.status();
  const CoverageCurve& curve = spread->curve;
  for (uint32_t k = 0; k < curve.k_coverage.size(); ++k) {
    for (size_t i = 1; i < curve.t_values.size(); ++i) {
      ASSERT_GE(curve.k_coverage[k][i] + 1e-12, curve.k_coverage[k][i - 1]);
    }
  }
  // Adoption skews to head sites, so microdata coverage at full t stays
  // below the near-universal phone channel: tail holdouts leave entities
  // that only tail sites mention uncovered.
  auto phone = study_.Scan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(phone.ok());
  auto phone_spread = study_.RunSpread(*phone);
  ASSERT_TRUE(phone_spread.ok());
  EXPECT_LT(curve.k_coverage[0].back() + 1e-12,
            phone_spread->curve.k_coverage[0].back() + 1e-9);
  EXPECT_LE(curve.k_coverage[0].back(), 1.0 + 1e-12);
}

TEST_F(StudySmall, MicrodataDoesNotApplyToBooks) {
  auto scan = study_.Scan(Domain::kBooks, Attribute::kMicrodata);
  EXPECT_TRUE(scan.status().IsInvalidArgument()) << scan.status();
}

// Every (domain, attribute) pair either scans or is refused with
// InvalidArgument, exactly as the registry's mask says: a catalog that
// lacks the channel's identifier (books have no phones, businesses no
// ISBNs) never reaches the page renderer. Enumerates the registry, so a
// new channel is covered without an edit here.
TEST(StudyMatrixTest, EveryPairScansExactlyWhenItsMaskAllows) {
  StudyOptions options;
  options.num_entities = 300;
  options.scale = 0.05;
  options.seed = 3;
  options.threads = 1;
  Study study(options);
  for (const AttributeSpec& spec : AllAttributeSpecs()) {
    for (Domain domain : AllDomains()) {
      const std::string pair =
          std::string(DomainName(domain)) + "/" + std::string(spec.name);
      auto scan = study.Scan(domain, spec.attr);
      if (AttributeApplicableTo(spec, domain)) {
        EXPECT_TRUE(scan.ok()) << pair << ": " << scan.status();
      } else {
        EXPECT_TRUE(scan.status().IsInvalidArgument())
            << pair << ": " << scan.status();
      }
    }
  }
}

TEST(StudyLegacyTest, LegacyScanRefusesMicrodata) {
  StudyOptions options = SmallOptions();
  options.legacy_scan = true;
  Study study(options);
  auto scan = study.Scan(Domain::kRestaurants, Attribute::kMicrodata);
  EXPECT_TRUE(scan.status().IsInvalidArgument()) << scan.status();
  // Legacy attributes still work through the frozen oracle.
  auto phone = study.Scan(Domain::kRestaurants, Attribute::kPhone);
  EXPECT_TRUE(phone.ok()) << phone.status();
}

TEST_F(StudySmall, ValueStudyAnchors) {
  StudyOptions options = SmallOptions();
  options.scale = 0.1;  // shrink the traffic populations
  Study study(options);

  auto yelp = study.RunValueStudy(TrafficSite::kYelp);
  auto imdb = study.RunValueStudy(TrafficSite::kImdb);
  ASSERT_TRUE(yelp.ok()) << yelp.status();
  ASSERT_TRUE(imdb.ok()) << imdb.status();

  // Fig 6: IMDb demand is far more concentrated than Yelp's.
  EXPECT_GT(imdb->head20_search, 0.85);
  EXPECT_LT(yelp->head20_search, 0.75);
  EXPECT_GT(imdb->head20_search, yelp->head20_search + 0.15);

  // Fig 7: demand grows with review count (compare first and a later
  // occupied bin).
  const auto& bins = yelp->bins;
  double first_z = 0, later_z = 0;
  bool have_later = false;
  for (const auto& bin : bins) {
    if (bin.num_entities < 20) continue;
    if (!have_later) {
      first_z = bin.mean_search_z;
      later_z = bin.mean_search_z;
      have_later = true;
    } else {
      later_z = bin.mean_search_z;
    }
  }
  ASSERT_TRUE(have_later);
  EXPECT_GT(later_z, first_z);

  // Fig 8: Yelp relative VA decreases from the zero-review bin.
  double last_va = 1e9;
  int checked = 0;
  for (const auto& bin : yelp->bins) {
    if (bin.num_entities < 20) continue;
    EXPECT_LE(bin.rel_va_search, last_va + 0.1)
        << "bin " << bin.label << " breaks the decreasing shape";
    last_va = bin.rel_va_search;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST_F(StudySmall, ValueStudyDeterministic) {
  StudyOptions options = SmallOptions();
  options.scale = 0.05;
  Study s1(options), s2(options);
  auto a = s1.RunValueStudy(TrafficSite::kAmazon);
  auto b = s2.RunValueStudy(TrafficSite::kAmazon);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->demand.events_consumed, b->demand.events_consumed);
  EXPECT_EQ(a->demand.search_demand, b->demand.search_demand);
  EXPECT_EQ(a->reviews, b->reviews);
}

// RunValueStudy counts one channel at a time, in two estimators; its
// table must equal one estimator fed both logs in the generator's order
// (population and log seeds as RunValueStudy derives them).
TEST(StudyValueTest, ChannelAtATimeMatchesOneEstimator) {
  StudyOptions options = SmallOptions();
  options.scale = 0.02;
  for (TrafficSite site :
       {TrafficSite::kAmazon, TrafficSite::kYelp, TrafficSite::kImdb}) {
    SCOPED_TRACE(TrafficSiteName(site));
    auto result = Study(options).RunValueStudy(site);
    ASSERT_TRUE(result.ok()) << result.status();

    TrafficSiteParams params = DefaultTrafficParams(site);
    params.num_entities = std::max<uint32_t>(
        256, static_cast<uint32_t>(params.num_entities * options.scale));
    const SitePopulation population =
        BuildPopulation(params, options.seed ^ 0x7eaf1cULL);
    const TrafficLogGenerator generator(population, TrafficLogOptions{},
                                        options.seed ^ 0x10656e1ULL);
    DemandEstimator estimator(site, params.num_entities);
    for (TrafficChannel channel :
         {TrafficChannel::kSearch, TrafficChannel::kBrowse}) {
      generator.Generate(channel,
                         [&](const VisitEvent& e) { estimator.Consume(e); });
    }
    const DemandTable expected = estimator.Finalize();

    const DemandTable& demand = result->demand;
    EXPECT_EQ(demand.search_demand, expected.search_demand);
    EXPECT_EQ(demand.browse_demand, expected.browse_demand);
    EXPECT_EQ(demand.events_consumed, expected.events_consumed);
    EXPECT_EQ(demand.events_skipped, expected.events_skipped);
    EXPECT_GT(expected.events_skipped, 0u);  // both logs carry noise URLs
  }
}

// Scale stability: the coverage shape barely moves between 1x and 2x
// entity counts (justifies running the study far below Yahoo's scale).
TEST(StudyScaleTest, CoverageShapeIsScaleStable) {
  StudyOptions small = SmallOptions();
  small.num_entities = 2000;
  StudyOptions big = SmallOptions();
  big.num_entities = 4000;

  auto curve_at = [](StudyOptions options, uint32_t t_index) {
    Study study(options);
    auto scan = study.Scan(Domain::kRestaurants, Attribute::kPhone);
    EXPECT_TRUE(scan.ok());
    auto spread = study.RunSpread(*scan);
    EXPECT_TRUE(spread.ok());
    return spread->curve.k_coverage[0][t_index];
  };
  // Compare 1-coverage at the same t (index 5 ~ top-20 sites).
  const double a = curve_at(small, 5);
  const double b = curve_at(big, 5);
  EXPECT_NEAR(a, b, 0.05);
}

}  // namespace
}  // namespace wsd
