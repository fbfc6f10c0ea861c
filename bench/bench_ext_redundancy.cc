// Extension bench: quantifies the redundancy claims of §1's conclusion 3
// ("structural redundancy within websites, content redundancy across
// websites") that the paper asserts but does not tabulate. For every
// Table 2 graph it reports pages-per-mention (within-site), sites-per-
// entity with the >= k availability ladder (cross-site), and the mean
// pairwise Jaccard overlap of the 20 largest sites.

#include <iostream>

#include "bench_util.h"
#include "core/redundancy.h"

int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv, "bench_ext_redundancy");
  using namespace wsd;
  const StudyOptions options = bench::Options(argc, argv);
  bench::PrintHeader("Extension: redundancy of structured data",
                     "§1 conclusion 3, §5 motivation", options);

  Study study(options);
  TextTable table({"Domain", "Attr", "pages/mention", "sites/entity",
                   ">=2 sites", ">=5 sites", "head Jaccard"});

  auto run = [&](Domain domain, Attribute attr) -> bool {
    auto scan = study.RunScan(domain, attr);
    if (!scan.ok()) {
      std::cerr << "scan failed: " << scan.status() << "\n";
      return false;
    }
    auto report =
        AnalyzeRedundancy(scan->table, options.ScaledEntities());
    if (!report.ok()) {
      std::cerr << "redundancy failed: " << report.status() << "\n";
      return false;
    }
    table.AddRow({std::string(DomainName(domain)),
                  std::string(AttributeName(attr)),
                  FormatF(report->pages_per_mention.mean(), 2),
                  FormatF(report->sites_per_entity.mean(), 1),
                  FormatPct(report->fraction_with_at_least[1]),
                  FormatPct(report->fraction_with_at_least[4]),
                  FormatF(report->head_pairwise_jaccard, 3)});
    return true;
  };

  if (!run(Domain::kBooks, Attribute::kIsbn)) return 1;
  for (Domain domain : LocalBusinessDomains()) {
    if (!run(domain, Attribute::kPhone)) return 1;
  }
  if (!run(Domain::kRestaurants, Attribute::kHomepage)) return 1;
  if (!run(Domain::kRestaurants, Attribute::kReviews)) return 1;
  table.Print(std::cout);

  std::cout << "\nReading the table: nearly every covered entity sits on "
               "several sites (cross-site\nredundancy: the fuel for "
               "corroboration and set expansion), identifiers repeat\n"
               "across pages within a site (structural redundancy: the "
               "fuel for wrapper\ninduction), and the head sites overlap "
               "heavily with each other.\n";
  return 0;
}
