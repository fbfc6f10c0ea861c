// Golden determinism suite: pins exact end-to-end numbers for one fixed
// (seed, scale) configuration. Any change to an RNG stream, sampler,
// extractor, or analysis that silently shifts results trips these — if a
// change here is intentional, update the constants and say why in the
// commit.

#include <gtest/gtest.h>

#include <string>

#include "core/study.h"
#include "entity/name_gen.h"
#include "text/review_lm.h"
#include "util/hash.h"

namespace wsd {
namespace {

StudyOptions GoldenOptions() {
  StudyOptions options;
  options.num_entities = 1000;
  options.scale = 1.0;
  options.seed = 20120827;  // VLDB 2012 started August 27
  options.threads = 2;
  return options;
}

TEST(GoldenRegressionTest, PhoneScanFingerprint) {
  Study study(GoldenOptions());
  auto scan = study.RunScan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan.ok());
  // Fingerprint: total edges, pages and the three largest host sizes.
  // Page-level mentions can exceed distinct (host, entity) edges when a
  // false match repeats an entity on a second page of the same host.
  EXPECT_GE(scan->stats.entity_mentions, scan->table.TotalEdges());
  EXPECT_NEAR(static_cast<double>(scan->stats.entity_mentions),
              static_cast<double>(scan->table.TotalEdges()),
              0.01 * static_cast<double>(scan->table.TotalEdges()));
  const auto order = scan->table.HostsBySizeDesc();
  ASSERT_GE(order.size(), 3u);
  const uint32_t top0 = scan->table.host_entity_count(order[0]);
  const uint32_t top1 = scan->table.host_entity_count(order[1]);
  const uint32_t top2 = scan->table.host_entity_count(order[2]);
  // Exact values for this seed; see file comment before updating.
  const uint64_t edges = scan->table.TotalEdges();
  EXPECT_EQ(edges, 31490u);
  EXPECT_EQ(top0, 790u);
  EXPECT_EQ(top1, 646u);
  EXPECT_EQ(top2, 538u);

  // Determinism across two independently constructed studies.
  Study study2(GoldenOptions());
  auto scan2 = study2.RunScan(Domain::kRestaurants, Attribute::kPhone);
  ASSERT_TRUE(scan2.ok());
  EXPECT_EQ(scan2->table.TotalEdges(), edges);
  const auto order2 = scan2->table.HostsBySizeDesc();
  EXPECT_EQ(scan2->table.host_entity_count(order2[0]), top0);
}

TEST(GoldenRegressionTest, CoverageCurveIsBitStable) {
  Study a(GoldenOptions()), b(GoldenOptions());
  auto ha = a.Scan(Domain::kBanks, Attribute::kPhone);
  auto hb = b.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(ha.ok() && hb.ok());
  auto sa = a.RunSpread(*ha);
  auto sb = b.RunSpread(*hb);
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_EQ(sa->curve.t_values, sb->curve.t_values);
  for (size_t k = 0; k < sa->curve.k_coverage.size(); ++k) {
    for (size_t i = 0; i < sa->curve.t_values.size(); ++i) {
      EXPECT_DOUBLE_EQ(sa->curve.k_coverage[k][i],
                       sb->curve.k_coverage[k][i]);
    }
  }
}

TEST(GoldenRegressionTest, GraphMetricsBitStable) {
  Study a(GoldenOptions()), b(GoldenOptions());
  auto ha = a.Scan(Domain::kBooks, Attribute::kIsbn);
  auto hb = b.Scan(Domain::kBooks, Attribute::kIsbn);
  ASSERT_TRUE(ha.ok() && hb.ok());
  auto ra = a.RunGraphMetrics(*ha);
  auto rb = b.RunGraphMetrics(*hb);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->num_edges, rb->num_edges);
  EXPECT_EQ(ra->diameter, rb->diameter);
  EXPECT_EQ(ra->num_components, rb->num_components);
  EXPECT_DOUBLE_EQ(ra->largest_component_entity_pct,
                   rb->largest_component_entity_pct);
}

TEST(GoldenRegressionTest, ValueStudyBitStable) {
  StudyOptions options = GoldenOptions();
  options.scale = 0.02;
  Study a(options), b(options);
  auto ra = a.RunValueStudy(TrafficSite::kImdb);
  auto rb = b.RunValueStudy(TrafficSite::kImdb);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->demand.search_demand, rb->demand.search_demand);
  EXPECT_EQ(ra->demand.browse_demand, rb->demand.browse_demand);
  EXPECT_EQ(ra->reviews, rb->reviews);
  ASSERT_EQ(ra->bins.size(), rb->bins.size());
  for (size_t i = 0; i < ra->bins.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra->bins[i].rel_va_search,
                     rb->bins[i].rel_va_search);
  }
}

// XXH64 over every page URL and HTML byte one channel renders at the
// golden options, chained page by page in render order.
uint64_t RenderedCorpusHash(Domain domain, Attribute attr) {
  const Study study(GoldenOptions());
  auto web = study.BuildWeb(domain, attr);
  EXPECT_TRUE(web.ok());
  if (!web.ok()) return 0;
  uint64_t h = 0;
  Page scratch;
  for (SiteId s = 0; s < web->num_hosts(); ++s) {
    web->GeneratePages(s, &scratch, [&](const Page& page, const PageTruth&) {
      h = XxHash64(page.url, h);
      h = XxHash64(page.html, h);
    });
  }
  return h;
}

// Pins the rendered bytes themselves, not just what a scan extracts from
// them: a renderer rewrite must reproduce every byte, and a toolchain that
// orders RNG draws differently would fail here first (tools/wsd_lint.py's
// rng-sequencing rule keeps every draw in its own statement so none can).
// Recorded with GCC 12.2 on x86-64.
TEST(GoldenRegressionTest, RenderedCorpusIsPinned) {
  EXPECT_EQ(RenderedCorpusHash(Domain::kBooks, Attribute::kIsbn),
            10114507763964407926ULL);
  EXPECT_EQ(RenderedCorpusHash(Domain::kRestaurants, Attribute::kPhone),
            17928560860339301670ULL);
  EXPECT_EQ(RenderedCorpusHash(Domain::kRestaurants, Attribute::kHomepage),
            8378282450206041769ULL);
  EXPECT_EQ(RenderedCorpusHash(Domain::kRestaurants, Attribute::kReviews),
            11853539977578087394ULL);
  EXPECT_EQ(RenderedCorpusHash(Domain::kRestaurants, Attribute::kMicrodata),
            12402511033241374903ULL);

  // The text generators, one fresh stream per seed.
  uint64_t names = 0, cities = 0, people = 0, reviews = 0, boiler = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    Rng rng(seed);
    for (int kind = 0; kind <= static_cast<int>(NameKind::kBook); ++kind) {
      names = XxHash64(GenerateName(rng, static_cast<NameKind>(kind)), names);
    }
    cities = XxHash64(GenerateCity(rng), cities);
    people = XxHash64(GeneratePersonName(rng), people);
    reviews = XxHash64(text::GenerateReviewText(rng, "Golden Harbor Bistro"),
                       reviews);
    boiler = XxHash64(
        text::GenerateBoilerplateText(rng, "Golden Harbor Bistro"), boiler);
  }
  EXPECT_EQ(names, 7604251103172369094ULL);
  EXPECT_EQ(cities, 3113653057205739248ULL);
  EXPECT_EQ(people, 10868450271219624710ULL);
  EXPECT_EQ(reviews, 3128579542307904986ULL);
  EXPECT_EQ(boiler, 17467323959132000767ULL);
}

}  // namespace
}  // namespace wsd
