#ifndef WSD_CORE_REPORT_H_
#define WSD_CORE_REPORT_H_

#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/demand_analysis.h"
#include "core/review_coverage.h"
#include "core/set_cover.h"
#include "core/study.h"
#include "graph/robustness.h"

namespace wsd {

/// Fixed-width text table used by the bench harness to print
/// paper-shaped rows.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  void Print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// "93.1%" with one decimal.
std::string FormatPct(double fraction);
/// Fixed-precision double.
std::string FormatF(double value, int decimals = 2);

/// Prints a k-coverage curve as rows of t x k columns (the textual
/// rendering of one panel of Figs 1-4a).
void PrintCoverageCurve(const std::string& title, const CoverageCurve& curve,
                        std::ostream& out);

/// Fig 4(b) rendering.
void PrintPageCoverage(const std::string& title,
                       const PageCoverageCurve& curve, std::ostream& out);

/// Fig 5 rendering: greedy vs size-ordered coverage per t.
void PrintSetCover(const std::string& title, const SetCoverCurve& curve,
                   std::ostream& out);

/// Table 2 rendering.
void PrintGraphMetrics(const std::vector<GraphMetricsRow>& rows,
                       std::ostream& out);

/// Fig 9 rendering: one series per graph.
void PrintRobustness(const std::string& title,
                     const std::vector<RobustnessPoint>& points,
                     std::ostream& out);

/// Figs 7/8 rendering: per-bin demand and relative value-add.
void PrintValueAddBins(const std::string& title,
                       const std::vector<ReviewBinStat>& bins,
                       std::ostream& out);

/// Machine-readable rendering of an analysis result.
enum class WireFormat {
  kJson,
  kTsv,
};

/// The machine-readable renderers. `wsdctl --out`, `wsdctl paper` and
/// `wsdd` all write these strings, so a served TSV body and the file
/// wsdctl writes at the same options are the same bytes. Deterministic;
/// %.6f floats.
std::string SpreadBody(Domain domain, Attribute attr,
                       const CoverageCurve& curve, WireFormat format);
std::string SetCoverBody(Domain domain, Attribute attr,
                         const SetCoverCurve& curve, WireFormat format);
/// One Table 2 row; its TSV form is GraphTableTsv of that one row.
std::string GraphBody(const GraphMetricsRow& row, WireFormat format);
/// Table 2 as TSV: the header, then one line per row.
std::string GraphTableTsv(std::span<const GraphMetricsRow> rows);
/// Figs 7/8 value-add bins (TSV), or the whole value study (JSON).
std::string DemandBody(const Study::ValueStudyResult& result,
                       WireFormat format);

/// k-coverage (1-based k) of the top-`t` sites: the curve's column at the
/// largest sampled t' <= t, so past the end of the curve its last column
/// (a web of fewer than t sites covers what all of it covers); 0 when t
/// precedes the first column.
double CoverageAt(const CoverageCurve& curve, uint32_t t, uint32_t k);
/// Fig 4(b)'s page fraction of the top-`t` sites, sampled the same way.
double CoverageAt(const PageCoverageCurve& curve, uint32_t t);

/// One claim of the paper checked against a run: a row of the
/// anchors.tsv that `wsdctl paper` writes. `measured` is in the claim's
/// unit (percent, points, hops, z or VA ratio) and unset when the run's
/// options leave it undefined. EXPERIMENTS.md ("Anchor bands") gives the
/// rule that turns the paper's wording into the inclusive band [lo, hi].
struct Anchor {
  std::string figure;  // "Fig 1", "Table 2"
  std::string claim;   // what was measured, with its unit
  std::string paper;   // the paper's wording
  std::optional<double> measured;
  double lo = 0.0;
  double hi = 0.0;
  std::string note;  // the Known deviation that widens the band, if any

  bool InBand() const {
    return measured.has_value() && lo <= *measured && *measured <= hi;
  }
};

/// The anchor table as TSV: `figure claim paper measured lo hi in_band
/// note`. measured prints %.3f ("-" when unset), the band edges %g
/// (±inf for an open side), in_band 1 or 0, an empty note "-".
std::string AnchorTableTsv(std::span<const Anchor> rows);

}  // namespace wsd

#endif  // WSD_CORE_REPORT_H_
