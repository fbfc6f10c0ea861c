#include "core/report.h"

#include <algorithm>

#include "util/string_util.h"

namespace wsd {

namespace {

// The values serialized as JSON strings are ASCII identifiers and bin
// labels; escaping covers quotes/backslashes/control bytes anyway.
void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendFormat(out, "\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// The value of `series` (sampled at `t_values`, strictly increasing) at
// the largest sampled t' <= t.
double ValueAt(std::span<const uint32_t> t_values,
               std::span<const double> series, uint32_t t) {
  const auto it = std::upper_bound(t_values.begin(), t_values.end(), t);
  if (it == t_values.begin()) return 0.0;
  return series[static_cast<size_t>(it - t_values.begin()) - 1];
}

}  // namespace

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::Print(std::ostream& out) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << "  ";
      out << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) out << ' ';
    }
    out << '\n';
  };
  print_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string FormatPct(double fraction) {
  return StrFormat("%.1f%%", fraction * 100.0);
}

std::string FormatF(double value, int decimals) {
  return StrFormat("%.*f", decimals, value);
}

void PrintCoverageCurve(const std::string& title, const CoverageCurve& curve,
                        std::ostream& out) {
  out << title << "\n";
  std::vector<std::string> header = {"top-t sites"};
  for (size_t k = 0; k < curve.k_coverage.size(); ++k) {
    header.push_back(StrFormat("k=%zu", k + 1));
  }
  TextTable table(std::move(header));
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    std::vector<std::string> row = {std::to_string(curve.t_values[i])};
    for (size_t k = 0; k < curve.k_coverage.size(); ++k) {
      row.push_back(FormatPct(curve.k_coverage[k][i]));
    }
    table.AddRow(std::move(row));
  }
  table.Print(out);
}

void PrintPageCoverage(const std::string& title,
                       const PageCoverageCurve& curve, std::ostream& out) {
  out << title << "  (total review pages: " << curve.total_pages << ")\n";
  TextTable table({"top-t sites", "% of review pages"});
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    table.AddRow({std::to_string(curve.t_values[i]),
                  FormatPct(curve.page_fraction[i])});
  }
  table.Print(out);
}

void PrintSetCover(const std::string& title, const SetCoverCurve& curve,
                   std::ostream& out) {
  out << title << "\n";
  TextTable table({"top-t sites", "greedy set cover", "ordered by size",
                   "improvement"});
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    table.AddRow(
        {std::to_string(curve.t_values[i]),
         FormatPct(curve.greedy_coverage[i]),
         FormatPct(curve.size_coverage[i]),
         StrFormat("%+.2fpp", (curve.greedy_coverage[i] -
                               curve.size_coverage[i]) *
                                  100.0)});
  }
  table.Print(out);
}

void PrintGraphMetrics(const std::vector<GraphMetricsRow>& rows,
                       std::ostream& out) {
  TextTable table({"Domain", "Attr", "Avg #sites/entity", "diameter",
                   "# conn. comp.", "% entities in largest comp."});
  for (const GraphMetricsRow& row : rows) {
    table.AddRow({std::string(DomainName(row.domain)),
                  std::string(AttributeName(row.attr)),
                  FormatF(row.avg_sites_per_entity, 1),
                  std::to_string(row.diameter),
                  std::to_string(row.num_components),
                  FormatF(row.largest_component_entity_pct, 2)});
  }
  table.Print(out);
}

void PrintRobustness(const std::string& title,
                     const std::vector<RobustnessPoint>& points,
                     std::ostream& out) {
  out << title << "\n";
  TextTable table({"top-k sites removed", "# conn. comp.",
                   "% entities in largest comp."});
  for (const RobustnessPoint& p : points) {
    table.AddRow({std::to_string(p.removed_sites),
                  std::to_string(p.num_components),
                  FormatPct(p.largest_component_entity_fraction)});
  }
  table.Print(out);
}

void PrintValueAddBins(const std::string& title,
                       const std::vector<ReviewBinStat>& bins,
                       std::ostream& out) {
  out << title << "\n";
  TextTable table({"#reviews (n)", "#entities", "demand z (search)",
                   "demand z (browse)", "VA(n)/VA(0) search",
                   "VA(n)/VA(0) browse"});
  for (const ReviewBinStat& bin : bins) {
    table.AddRow({bin.label, std::to_string(bin.num_entities),
                  FormatF(bin.mean_search_z, 3),
                  FormatF(bin.mean_browse_z, 3),
                  FormatF(bin.rel_va_search, 3),
                  FormatF(bin.rel_va_browse, 3)});
  }
  table.Print(out);
}

std::string SpreadBody(Domain domain, Attribute attr,
                       const CoverageCurve& curve, WireFormat format) {
  std::string out;
  if (format == WireFormat::kTsv) {
    out = "t";
    for (size_t k = 1; k <= curve.k_coverage.size(); ++k) {
      AppendFormat(&out, "\tk%zu", k);
    }
    out += "\n";
    for (size_t i = 0; i < curve.t_values.size(); ++i) {
      AppendFormat(&out, "%u", curve.t_values[i]);
      for (const auto& series : curve.k_coverage) {
        AppendFormat(&out, "\t%.6f", series[i]);
      }
      out += "\n";
    }
    return out;
  }
  out = "{\"domain\":";
  AppendJsonString(&out, DomainName(domain));
  out += ",\"attr\":";
  AppendJsonString(&out, AttributeName(attr));
  AppendFormat(&out, ",\"num_entities\":%u,\"num_sites\":%u,\"t\":[",
               curve.num_entities, curve.num_sites);
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    AppendFormat(&out, "%s%u", i ? "," : "", curve.t_values[i]);
  }
  out += "],\"k_coverage\":[";
  for (size_t k = 0; k < curve.k_coverage.size(); ++k) {
    out += k ? ",[" : "[";
    const auto& series = curve.k_coverage[k];
    for (size_t i = 0; i < series.size(); ++i) {
      AppendFormat(&out, "%s%.6f", i ? "," : "", series[i]);
    }
    out += "]";
  }
  out += "]}\n";
  return out;
}

std::string SetCoverBody(Domain domain, Attribute attr,
                         const SetCoverCurve& curve, WireFormat format) {
  std::string out;
  if (format == WireFormat::kTsv) {
    out = "t\tgreedy\tby_size\n";
    for (size_t i = 0; i < curve.t_values.size(); ++i) {
      AppendFormat(&out, "%u\t%.6f\t%.6f\n", curve.t_values[i],
                   curve.greedy_coverage[i], curve.size_coverage[i]);
    }
    return out;
  }
  out = "{\"domain\":";
  AppendJsonString(&out, DomainName(domain));
  out += ",\"attr\":";
  AppendJsonString(&out, AttributeName(attr));
  AppendFormat(&out, ",\"num_entities\":%u,\"t\":[", curve.num_entities);
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    AppendFormat(&out, "%s%u", i ? "," : "", curve.t_values[i]);
  }
  out += "],\"greedy\":[";
  for (size_t i = 0; i < curve.greedy_coverage.size(); ++i) {
    AppendFormat(&out, "%s%.6f", i ? "," : "", curve.greedy_coverage[i]);
  }
  out += "],\"by_size\":[";
  for (size_t i = 0; i < curve.size_coverage.size(); ++i) {
    AppendFormat(&out, "%s%.6f", i ? "," : "", curve.size_coverage[i]);
  }
  out += "]}\n";
  return out;
}

std::string GraphTableTsv(std::span<const GraphMetricsRow> rows) {
  std::string out =
      "domain\tattr\tavg_sites_per_entity\tdiameter\tcomponents\t"
      "largest_pct\n";
  for (const GraphMetricsRow& row : rows) {
    AppendFormat(&out, "%s\t%s\t%.2f\t%u\t%u\t%.4f\n",
                 std::string(DomainName(row.domain)).c_str(),
                 std::string(AttributeName(row.attr)).c_str(),
                 row.avg_sites_per_entity, row.diameter, row.num_components,
                 row.largest_component_entity_pct);
  }
  return out;
}

std::string GraphBody(const GraphMetricsRow& row, WireFormat format) {
  if (format == WireFormat::kTsv) return GraphTableTsv({&row, 1});
  std::string out = "{\"domain\":";
  AppendJsonString(&out, DomainName(row.domain));
  out += ",\"attr\":";
  AppendJsonString(&out, AttributeName(row.attr));
  AppendFormat(&out,
               ",\"avg_sites_per_entity\":%.2f,\"diameter\":%u,"
               "\"components\":%u,\"largest_pct\":%.4f,"
               "\"covered_entities\":%u,\"sites\":%u,\"edges\":%llu}\n",
               row.avg_sites_per_entity, row.diameter, row.num_components,
               row.largest_component_entity_pct, row.num_covered_entities,
               row.num_sites,
               static_cast<unsigned long long>(row.num_edges));
  return out;
}

std::string DemandBody(const Study::ValueStudyResult& result,
                       WireFormat format) {
  std::string out;
  if (format == WireFormat::kTsv) {
    out = "bin\tentities\tsearch_z\tbrowse_z\trel_va_search\trel_va_browse\n";
    for (const auto& bin : result.bins) {
      AppendFormat(&out, "%s\t%llu\t%.6f\t%.6f\t%.6f\t%.6f\n",
                   bin.label.c_str(),
                   static_cast<unsigned long long>(bin.num_entities),
                   bin.mean_search_z, bin.mean_browse_z, bin.rel_va_search,
                   bin.rel_va_browse);
    }
    return out;
  }
  out = "{\"site\":";
  AppendJsonString(&out, TrafficSiteName(result.site));
  AppendFormat(&out, ",\"head20_search\":%.6f,\"head20_browse\":%.6f,\"bins\":[",
               result.head20_search, result.head20_browse);
  bool first = true;
  for (const auto& bin : result.bins) {
    if (!first) out += ",";
    first = false;
    out += "{\"bin\":";
    AppendJsonString(&out, bin.label);
    AppendFormat(&out,
                 ",\"entities\":%llu,\"search_z\":%.6f,\"browse_z\":%.6f,"
                 "\"rel_va_search\":%.6f,\"rel_va_browse\":%.6f}",
                 static_cast<unsigned long long>(bin.num_entities),
                 bin.mean_search_z, bin.mean_browse_z, bin.rel_va_search,
                 bin.rel_va_browse);
  }
  out += "]}\n";
  return out;
}

double CoverageAt(const CoverageCurve& curve, uint32_t t, uint32_t k) {
  return ValueAt(curve.t_values, curve.k_coverage[k - 1], t);
}

double CoverageAt(const PageCoverageCurve& curve, uint32_t t) {
  return ValueAt(curve.t_values, curve.page_fraction, t);
}

std::string AnchorTableTsv(std::span<const Anchor> rows) {
  std::string out = "figure\tclaim\tpaper\tmeasured\tlo\thi\tin_band\tnote\n";
  for (const Anchor& row : rows) {
    AppendFormat(&out, "%s\t%s\t%s\t", row.figure.c_str(), row.claim.c_str(),
                 row.paper.c_str());
    if (row.measured.has_value()) {
      AppendFormat(&out, "%.3f", *row.measured);
    } else {
      out += "-";
    }
    AppendFormat(&out, "\t%g\t%g\t%d\t%s\n", row.lo, row.hi,
                 row.InBand() ? 1 : 0,
                 row.note.empty() ? "-" : row.note.c_str());
  }
  return out;
}

}  // namespace wsd
