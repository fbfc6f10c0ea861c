#include "core/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

namespace wsd {
namespace {

TEST(TextTableTest, AlignsColumnsAndPadsRows) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name"});  // short row padded with empty cell
  std::ostringstream out;
  table.Print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("longer-name"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(rendered.find("----"), std::string::npos);
  // All lines for data rows start at column 0 with the first cell.
  EXPECT_NE(rendered.find("a "), std::string::npos);
}

TEST(FormatTest, Percent) {
  EXPECT_EQ(FormatPct(0.0), "0.0%");
  EXPECT_EQ(FormatPct(0.931), "93.1%");
  EXPECT_EQ(FormatPct(1.0), "100.0%");
}

TEST(FormatTest, FixedPrecision) {
  EXPECT_EQ(FormatF(3.14159, 2), "3.14");
  EXPECT_EQ(FormatF(3.14159, 0), "3");
  EXPECT_EQ(FormatF(-1.5, 1), "-1.5");
}

TEST(ReportPrintersTest, CoverageCurveRendersAllCells) {
  CoverageCurve curve;
  curve.t_values = {1, 10};
  curve.k_coverage = {{0.5, 0.9}, {0.1, 0.4}};
  curve.num_entities = 100;
  std::ostringstream out;
  PrintCoverageCurve("test curve", curve, out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("test curve"), std::string::npos);
  EXPECT_NE(rendered.find("k=1"), std::string::npos);
  EXPECT_NE(rendered.find("k=2"), std::string::npos);
  EXPECT_NE(rendered.find("50.0%"), std::string::npos);
  EXPECT_NE(rendered.find("40.0%"), std::string::npos);
}

TEST(ReportPrintersTest, GraphMetricsRendersDomains) {
  GraphMetricsRow row;
  row.domain = Domain::kBooks;
  row.attr = Attribute::kIsbn;
  row.avg_sites_per_entity = 8.0;
  row.diameter = 8;
  row.num_components = 439;
  row.largest_component_entity_pct = 99.96;
  std::ostringstream out;
  PrintGraphMetrics({row}, out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("Books"), std::string::npos);
  EXPECT_NE(rendered.find("ISBN"), std::string::npos);
  EXPECT_NE(rendered.find("439"), std::string::npos);
  EXPECT_NE(rendered.find("99.96"), std::string::npos);
}

TEST(ReportPrintersTest, RobustnessAndSetCoverAndBins) {
  std::ostringstream out;
  PrintRobustness("rob", {{0, 3, 0.999}, {1, 5, 0.98}}, out);
  EXPECT_NE(out.str().find("99.9%"), std::string::npos);

  SetCoverCurve curve;
  curve.t_values = {1};
  curve.greedy_coverage = {0.6};
  curve.size_coverage = {0.5};
  std::ostringstream out2;
  PrintSetCover("sc", curve, out2);
  EXPECT_NE(out2.str().find("+10.00pp"), std::string::npos);

  ReviewBinStat bin;
  bin.label = "1-2";
  bin.num_entities = 42;
  bin.rel_va_search = 0.75;
  std::ostringstream out3;
  PrintValueAddBins("bins", {bin}, out3);
  EXPECT_NE(out3.str().find("1-2"), std::string::npos);
  EXPECT_NE(out3.str().find("0.750"), std::string::npos);

  PageCoverageCurve pages;
  pages.t_values = {1};
  pages.page_fraction = {0.8};
  pages.total_pages = 1234;
  std::ostringstream out4;
  PrintPageCoverage("pc", pages, out4);
  EXPECT_NE(out4.str().find("1234"), std::string::npos);
  EXPECT_NE(out4.str().find("80.0%"), std::string::npos);
}

TEST(CoverageAtTest, ReadsSampledColumnsAndFallsBackToTheLast) {
  CoverageCurve curve;
  curve.t_values = {1, 10, 50};
  curve.k_coverage = {{0.5, 0.9, 1.0}, {0.1, 0.4, 0.7}};
  EXPECT_EQ(CoverageAt(curve, 10, 1), 0.9);
  EXPECT_EQ(CoverageAt(curve, 10, 2), 0.4);
  // Past the end of the curve (a web of 50 sites asked for its top 100):
  // the last column.
  EXPECT_EQ(CoverageAt(curve, 100, 1), 1.0);
  EXPECT_EQ(CoverageAt(curve, 100, 2), 0.7);
  // Between columns: the largest sampled t below.
  EXPECT_EQ(CoverageAt(curve, 20, 2), 0.4);
  EXPECT_EQ(CoverageAt(curve, 0, 1), 0.0);

  PageCoverageCurve pages;
  pages.t_values = {1, 10};
  pages.page_fraction = {0.25, 0.75};
  EXPECT_EQ(CoverageAt(pages, 1), 0.25);
  EXPECT_EQ(CoverageAt(pages, 1000), 0.75);
}

TEST(AnchorTableTest, RendersRowsExactly) {
  const Anchor rows[] = {
      {"Fig 1", "top-10 sites, k=1 (%)", "~93%", 91.6804, 88, 98, ""},
      {"Table 2", "largest diameter (hops)", "6-8", 9.0, 6, 9,
       "Known deviation 2"},
      {"Fig 8", "step minus linear", "higher tail value", -1.0571,
       -std::numeric_limits<double>::infinity(), -0.001, ""},
  };
  EXPECT_EQ(AnchorTableTsv(rows),
            "figure\tclaim\tpaper\tmeasured\tlo\thi\tin_band\tnote\n"
            "Fig 1\ttop-10 sites, k=1 (%)\t~93%\t91.680\t88\t98\t1\t-\n"
            "Table 2\tlargest diameter (hops)\t6-8\t9.000\t6\t9\t1\t"
            "Known deviation 2\n"
            "Fig 8\tstep minus linear\thigher tail value\t-1.057\t-inf\t"
            "-0.001\t1\t-\n");
}

TEST(AnchorTableTest, BandIsInclusiveOnBothEdges) {
  Anchor anchor{"Fig 4", "top-5000 sites, k=2 (%)", "~90%", 85.0, 85, 95, ""};
  EXPECT_TRUE(anchor.InBand());
  anchor.measured = 95.0;
  EXPECT_TRUE(anchor.InBand());
  anchor.measured = std::nextafter(85.0, 0.0);
  EXPECT_FALSE(anchor.InBand());
  anchor.measured = std::nextafter(95.0, 100.0);
  EXPECT_FALSE(anchor.InBand());
  EXPECT_NE(AnchorTableTsv({&anchor, 1}).find("\t85\t95\t0\t-\n"),
            std::string::npos);
}

// A measurement the run's options leave undefined (Fig 8's shape needs
// three bins with at least 10 entities) prints "-" and is out of band.
TEST(AnchorTableTest, UndefinedMeasurementIsOutOfBand) {
  const Anchor anchor{"Fig 8", "IMDb VA(n)/VA(0) last bin over peak",
                      "humped: falls at the head", std::nullopt, 0, 0.799,
                      ""};
  EXPECT_FALSE(anchor.InBand());
  EXPECT_EQ(AnchorTableTsv({&anchor, 1}),
            "figure\tclaim\tpaper\tmeasured\tlo\thi\tin_band\tnote\n"
            "Fig 8\tIMDb VA(n)/VA(0) last bin over peak\t"
            "humped: falls at the head\t-\t0\t0.799\t0\t-\n");
}

}  // namespace
}  // namespace wsd
