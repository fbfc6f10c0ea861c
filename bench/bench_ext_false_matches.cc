// Extension bench: the §3.5 error-methodology discussion, made
// executable. The paper argues that false identifier matches "will only
// lead to over-estimation of the coverage (i.e., making the spread appear
// lower), since the top-t websites will report more entities than what
// they truly cover. Thus, it only strengthens the conclusion that a
// significant amount of information can only be found in the tail."
// This bench sweeps the injected false-match rate and reports the
// measured 1-coverage of the top-10 / top-100 sites, confirming the
// direction and magnitude of the bias.

#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) {
  const wsd::bench::MetricsExport metrics_export(argc, argv, "bench_ext_false_matches");
  using namespace wsd;
  const StudyOptions options = bench::Options(argc, argv);
  bench::PrintHeader("Extension: effect of false identifier matches",
                     "§3.5 Discussion on Errors in Methodology", options);

  TextTable table({"false-match rate", "top-10 k=1", "top-100 k=1",
                   "top-1000 k=1"});

  double baseline_10 = -1.0;
  bool inflation_monotone = true;
  double prev_10 = -1.0;
  for (double rate : {0.0, 0.001, 0.005, 0.02, 0.05}) {
    SyntheticWeb::Config config;
    config.domain = Domain::kRestaurants;
    config.attr = Attribute::kPhone;
    config.num_entities = options.ScaledEntities();
    config.seed = options.seed;
    SpreadParams params =
        DefaultSpreadParams(Domain::kRestaurants, Attribute::kPhone);
    params.num_sites = std::max<uint32_t>(
        64, static_cast<uint32_t>(params.num_sites * options.scale));
    params.false_match_fraction = rate;
    config.spread = params;
    auto web = SyntheticWeb::Create(config);
    if (!web.ok()) {
      std::cerr << web.status() << "\n";
      return 1;
    }
    ThreadPool pool(options.threads);
    auto scan = ScanPipeline(*web, pool).Run();
    if (!scan.ok()) {
      std::cerr << scan.status() << "\n";
      return 1;
    }
    auto curve = ComputeKCoverage(scan->table, config.num_entities, 1,
                                  {10, 100, 1000});
    if (!curve.ok()) {
      std::cerr << curve.status() << "\n";
      return 1;
    }
    const double top10 = curve->k_coverage[0][0];
    if (baseline_10 < 0) baseline_10 = top10;
    if (prev_10 >= 0 && top10 + 0.005 < prev_10) {
      inflation_monotone = false;
    }
    prev_10 = top10;
    table.AddRow({StrFormat("%.2f%%", rate * 100.0), FormatPct(top10),
                  FormatPct(curve->k_coverage[0][1]),
                  FormatPct(curve->k_coverage[0][2])});
  }
  table.Print(std::cout);

  std::cout << "\n";
  bench::PrintAnchor(
      "false matches only inflate head coverage (never deflate)",
      "over-estimation only",
      inflation_monotone ? "monotone inflation confirmed"
                         : "NOT monotone (unexpected)");
  std::cout << "(so the paper's tail-spread conclusions are conservative "
               "with respect to this\nerror source, as §3.5 argues)\n";
  return 0;
}
