// Calibration regression suite: the model-level invariants that the
// `wsdctl paper` figures rely on, checked across every (domain,
// attribute) pair at reduced scale via the ground-truth fast path (no
// HTML). These pin the DefaultSpreadParams calibration against Table 2
// of the paper.

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "corpus/site_model.h"
#include "entity/catalog.h"

namespace wsd {
namespace {

struct GraphCase {
  Domain domain;
  Attribute attr;
  double table2_mean_degree;  // Table 2 "Avg. #sites per entity"
};

// All 17 graphs of Table 2.
const GraphCase kCases[] = {
    {Domain::kBooks, Attribute::kIsbn, 8},
    {Domain::kAutomotive, Attribute::kPhone, 13},
    {Domain::kBanks, Attribute::kPhone, 22},
    {Domain::kHomeGarden, Attribute::kPhone, 13},
    {Domain::kHotels, Attribute::kPhone, 56},
    {Domain::kLibraries, Attribute::kPhone, 47},
    {Domain::kRestaurants, Attribute::kPhone, 32},
    {Domain::kRetail, Attribute::kPhone, 19},
    {Domain::kSchools, Attribute::kPhone, 37},
    {Domain::kAutomotive, Attribute::kHomepage, 115},
    {Domain::kBanks, Attribute::kHomepage, 68},
    {Domain::kHomeGarden, Attribute::kHomepage, 20},
    {Domain::kHotels, Attribute::kHomepage, 56},
    {Domain::kLibraries, Attribute::kHomepage, 251},
    {Domain::kRestaurants, Attribute::kHomepage, 46},
    {Domain::kRetail, Attribute::kHomepage, 45},
    {Domain::kSchools, Attribute::kHomepage, 74},
};

class CalibrationTest : public ::testing::TestWithParam<size_t> {
 protected:
  static constexpr uint32_t kEntities = 4000;
};

TEST_P(CalibrationTest, MeanDegreeTracksTable2) {
  const GraphCase& c = kCases[GetParam()];
  auto catalog = DomainCatalog::Build(c.domain, kEntities, 77);
  ASSERT_TRUE(catalog.ok());
  SpreadParams params = DefaultSpreadParams(c.domain, c.attr);
  params.false_match_fraction = 0.0;
  auto model = SiteEntityModel::Build(*catalog, params, 77);
  ASSERT_TRUE(model.ok());
  const double mean = static_cast<double>(model->num_edges()) /
                      static_cast<double>(kEntities);
  // Lognormal discretization + truncation allows up to 20% drift; the
  // extreme Libraries-homepage row (251) clips hardest.
  const double tolerance = c.table2_mean_degree >= 200 ? 0.25 : 0.20;
  EXPECT_NEAR(mean, c.table2_mean_degree,
              c.table2_mean_degree * tolerance)
      << DomainName(c.domain) << "/" << AttributeName(c.attr);
}

TEST_P(CalibrationTest, HeadSiteDominatesButNeverCoversAll) {
  const GraphCase& c = kCases[GetParam()];
  auto catalog = DomainCatalog::Build(c.domain, kEntities, 78);
  ASSERT_TRUE(catalog.ok());
  auto model = SiteEntityModel::Build(
      *catalog, DefaultSpreadParams(c.domain, c.attr), 78);
  ASSERT_TRUE(model.ok());
  const HostEntityTable table = ModelToHostTable(*model);
  auto curve = ComputeKCoverage(table, kEntities, 1, {1});
  ASSERT_TRUE(curve.ok());
  const double top1 = curve->k_coverage[0][0];
  // Every studied graph has a strong-but-partial head aggregator.
  EXPECT_GT(top1, 0.20) << DomainName(c.domain) << "/"
                        << AttributeName(c.attr);
  EXPECT_LT(top1, 0.95) << DomainName(c.domain) << "/"
                        << AttributeName(c.attr);
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, CalibrationTest,
                         ::testing::Range<size_t>(0, std::size(kCases)));

TEST(CalibrationShapeTest, HomepageSpreadsWiderThanPhone) {
  // The Fig 1 vs Fig 2 contrast, at model level: top-10 1-coverage for
  // homepages is well below the phone value in the same domain.
  auto catalog = DomainCatalog::Build(Domain::kRestaurants, 4000, 79);
  ASSERT_TRUE(catalog.ok());
  auto top10 = [&](Attribute attr) {
    auto model = SiteEntityModel::Build(
        *catalog, DefaultSpreadParams(Domain::kRestaurants, attr), 79);
    EXPECT_TRUE(model.ok());
    auto curve =
        ComputeKCoverage(ModelToHostTable(*model), 4000, 1, {10});
    EXPECT_TRUE(curve.ok());
    return curve->k_coverage[0][0];
  };
  const double phone = top10(Attribute::kPhone);
  const double homepage = top10(Attribute::kHomepage);
  EXPECT_GT(phone, homepage + 0.15);
}

TEST(CalibrationShapeTest, ComponentOrderingAcrossDomains) {
  // Table 2's component-count ordering: Home & Garden has by far the
  // most disconnected pockets; Libraries the fewest.
  auto count_components = [](Domain d) {
    auto catalog = DomainCatalog::Build(d, 6000, 80);
    EXPECT_TRUE(catalog.ok());
    auto model = SiteEntityModel::Build(
        *catalog, DefaultSpreadParams(d, Attribute::kPhone), 80);
    EXPECT_TRUE(model.ok());
    // Pocket sites sit beyond num_sites; components ~= pockets + 1.
    return model->num_sites() -
           DefaultSpreadParams(d, Attribute::kPhone).num_sites;
  };
  const auto home = count_components(Domain::kHomeGarden);
  const auto retail = count_components(Domain::kRetail);
  const auto libraries = count_components(Domain::kLibraries);
  EXPECT_GT(home, retail);
  EXPECT_GT(retail, libraries);
}

}  // namespace
}  // namespace wsd
