#ifndef WSD_CORE_REPORT_H_
#define WSD_CORE_REPORT_H_

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

}  // namespace wsd

#endif  // WSD_CORE_REPORT_H_
