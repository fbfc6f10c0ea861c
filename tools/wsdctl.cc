// wsdctl — command-line driver for the webspread library.
//
// Subcommands (run `wsdctl help` for details):
//   domains               print Table 1
//   spread                k-coverage curves for one (domain, attribute)
//   reviews               Fig 4 site- and page-level review coverage
//   setcover              Fig 5 greedy-vs-size ordering
//   graph                 Table 2 metrics for one graph or --all
//   robustness            Fig 9 sweep for one graph
//   value                 §4 demand/value-add study for one traffic site
//   bootstrap             set-expansion simulation on one graph
//   gen-cache             render a synthetic web into an on-disk page cache
//   scan                  run one cache scan; --out writes a binary snapshot
//                         (--shard i/n scans one corpus slice, --canonical
//                         emits the merge-comparable canonical form)
//   merge                 recombine per-shard snapshots into one
//   paper                 every figure and table, then the anchor table
//   metrics               run a command (or a scan), dump the metrics registry
//
// Common flags: --domain=<name> --attr=<name> (the attribute vocabulary
//               comes from the attribute registry: phone homepage isbn
//               reviews microdata)
//               --entities=N --seed=N --scale=F --out=<file.tsv>
//               --artifacts=<dir> --metrics_out=<file.json>
// Every command prints a human table to stdout; --out additionally dumps
// machine-readable TSV (rendered by core/report.h: the bytes wsdd serves
// for the same options) and --metrics_out dumps the metrics registry as
// JSON after the run (see docs/METRICS.md). A malformed --entities,
// --seed, --scale or --threads value is a usage error (exit 2).
// --artifacts enables the on-disk scan-artifact cache (see
// docs/ARCHITECTURE.md, "Artifact store"): identical reruns then skip
// their scans entirely.

#include <algorithm>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bootstrap.h"
#include "core/report.h"
#include "core/coverage.h"
#include "core/demand_analysis.h"
#include "core/study.h"
#include "extract/attribute_registry.h"
#include "store/merge.h"
#include "store/snapshot.h"
#include "util/flags.h"
#include "corpus/web_cache.h"
#include "graph/diameter.h"
#include "util/io_util.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace wsd {
namespace {

using Args = FlagParser;

// Prints a failed status to stderr; true when `status` is OK.
bool Ok(const Status& status) {
  if (!status.ok()) std::cerr << status << "\n";
  return status.ok();
}

template <typename T>
bool Ok(const StatusOr<T>& result) {
  return Ok(result.status());
}

// The --domain/--attr pair most commands scan. Unknown names are a usage
// error, printed here.
struct Pair {
  Domain domain;
  Attribute attr;
};

std::optional<Pair> ParsePair(const Args& args,
                              Attribute default_attr = Attribute::kPhone) {
  std::optional<Domain> domain = Domain::kRestaurants;
  if (auto v = args.Get("domain")) domain = FindDomainByName(*v);
  const AttributeSpec* spec = &GetAttributeSpec(default_attr);
  if (auto v = args.Get("attr")) spec = FindAttributeByName(*v);
  if (!domain.has_value() || spec == nullptr) {
    std::cerr << "unknown --domain or --attr\n";
    return std::nullopt;
  }
  return Pair{*domain, spec->attr};
}

// Every text file wsdctl writes goes through here: atomically, and a
// failure is reported with the path.
bool WriteOutput(const std::string& path, std::string_view data) {
  const Status status = WriteFileAtomic(path, data);
  if (!status.ok()) std::cerr << path << ": " << status << "\n";
  return status.ok();
}

// Writes `tsv` to the --out file when one is given; returns the exit code.
int MaybeWriteTsv(const Args& args, std::string_view tsv) {
  const auto out = args.Get("out");
  if (!out.has_value()) return 0;
  if (!WriteOutput(*out, tsv)) return 1;
  std::cout << "\nwrote " << std::count(tsv.begin(), tsv.end(), '\n')
            << " rows to " << *out << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// Subcommands.

int CmdDomains(const Args& args) {
  TextTable table({"domain", "flag value", "attributes"});
  std::string tsv = "domain\tflag\tattributes\n";
  for (Domain d : AllDomains()) {
    std::string attrs;
    for (Attribute a : StudiedAttributes(d)) {
      if (!attrs.empty()) attrs += ",";
      attrs += std::string(AttributeName(a));
    }
    const std::string name(DomainName(d));
    const std::string flag(DomainFlagName(d));
    table.AddRow({name, flag, attrs});
    tsv += name + "\t" + flag + "\t" + attrs + "\n";
  }
  table.Print(std::cout);
  return MaybeWriteTsv(args, tsv);
}

int CmdSpread(const Args& args, const StudyOptions& options) {
  const auto pair = ParsePair(args);
  if (!pair) return 2;
  Study study(options);
  auto scan = study.Scan(pair->domain, pair->attr);
  if (!Ok(scan)) return 1;
  auto spread = study.RunSpread(*scan);
  if (!Ok(spread)) return 1;
  PrintCoverageCurve(
      StrFormat("%s - %s spread",
                std::string(DomainName(pair->domain)).c_str(),
                std::string(AttributeName(pair->attr)).c_str()),
      spread->curve, std::cout);
  return MaybeWriteTsv(args, SpreadBody(pair->domain, pair->attr,
                                        spread->curve, WireFormat::kTsv));
}

int CmdReviews(const Args& args, const StudyOptions& options) {
  Study study(options);
  auto scan = study.Scan(Domain::kRestaurants, Attribute::kReviews);
  if (!Ok(scan)) return 1;
  auto result = study.RunReviewSpread(*scan);
  if (!Ok(result)) return 1;
  PrintCoverageCurve("Restaurant reviews - site-level k-coverage",
                     result->site_curve, std::cout);
  std::cout << "\n";
  PrintPageCoverage("Restaurant reviews - page-level coverage",
                    result->page_curve, std::cout);

  std::string tsv = "t\tk1_sites\tpage_fraction\n";
  for (size_t i = 0; i < result->site_curve.t_values.size(); ++i) {
    AppendFormat(&tsv, "%u\t%.6f\t%.6f\n", result->site_curve.t_values[i],
                 result->site_curve.k_coverage[0][i],
                 result->page_curve.page_fraction[i]);
  }
  return MaybeWriteTsv(args, tsv);
}

int CmdSetCover(const Args& args, const StudyOptions& options) {
  const auto pair = ParsePair(args, Attribute::kHomepage);
  if (!pair) return 2;
  Study study(options);
  auto scan = study.Scan(pair->domain, pair->attr);
  if (!Ok(scan)) return 1;
  auto curve = study.RunSetCover(*scan);
  if (!Ok(curve)) return 1;
  PrintSetCover("greedy set cover vs size ordering", *curve, std::cout);
  return MaybeWriteTsv(args, SetCoverBody(pair->domain, pair->attr, *curve,
                                          WireFormat::kTsv));
}

// The Table 2 graphs in the paper's order: books by ISBN, then every
// local domain by phone, then by homepage.
std::vector<Pair> Table2Pairs() {
  std::vector<Pair> pairs = {{Domain::kBooks, Attribute::kIsbn}};
  for (Attribute a : {Attribute::kPhone, Attribute::kHomepage}) {
    for (Domain d : LocalBusinessDomains()) pairs.push_back({d, a});
  }
  return pairs;
}

// Scans each pair and calls `visit` with its scan and Table 2 row. False
// as soon as a scan, an analysis or `visit` fails.
template <typename Visit>
bool ForEachGraph(Study& study, const std::vector<Pair>& pairs,
                  Visit visit) {
  for (const Pair& pair : pairs) {
    auto scan = study.Scan(pair.domain, pair.attr);
    if (!Ok(scan)) return false;
    auto row = study.RunGraphMetrics(*scan);
    if (!Ok(row) || !visit(*scan, *row)) return false;
  }
  return true;
}

int CmdGraph(const Args& args, const StudyOptions& options) {
  std::vector<Pair> pairs;
  if (args.Has("all")) {
    pairs = Table2Pairs();
  } else {
    const auto pair = ParsePair(args);
    if (!pair) return 2;
    pairs = {*pair};
  }
  Study study(options);
  std::vector<GraphMetricsRow> rows;
  const bool ok = ForEachGraph(
      study, pairs, [&](const Study::ScanHandle&, const GraphMetricsRow& row) {
        rows.push_back(row);
        return true;
      });
  if (!ok) return 1;
  PrintGraphMetrics(rows, std::cout);
  return MaybeWriteTsv(args, GraphTableTsv(rows));
}

int CmdRobustness(const Args& args, const StudyOptions& options) {
  const auto pair = ParsePair(args);
  if (!pair) return 2;
  Study study(options);
  auto scan = study.Scan(pair->domain, pair->attr);
  if (!Ok(scan)) return 1;
  auto sweep = study.RunRobustness(*scan, 10);
  if (!Ok(sweep)) return 1;
  PrintRobustness("largest component vs removed top sites", *sweep,
                  std::cout);
  std::string tsv = "removed\tcomponents\tlargest_fraction\n";
  for (const auto& point : *sweep) {
    AppendFormat(&tsv, "%u\t%u\t%.6f\n", point.removed_sites,
                 point.num_components,
                 point.largest_component_entity_fraction);
  }
  return MaybeWriteTsv(args, tsv);
}

int CmdValue(const Args& args, const StudyOptions& options) {
  const auto site = FindTrafficSiteByName(args.GetOr("site", "yelp"));
  if (!site) {
    std::cerr << "unknown --site (" << TrafficSiteVocabulary('|') << ")\n";
    return 2;
  }
  Study study(options);
  auto result = study.RunValueStudy(*site);
  if (!Ok(result)) return 1;
  std::cout << TrafficSiteName(*site) << ": top-20% demand share "
            << FormatPct(result->head20_search) << " (search) / "
            << FormatPct(result->head20_browse) << " (browse)\n\n";
  PrintValueAddBins("demand and value-add by review-count bin",
                    result->bins, std::cout);
  return MaybeWriteTsv(args, DemandBody(*result, WireFormat::kTsv));
}

int CmdBootstrap(const Args& args, const StudyOptions& options) {
  const auto pair = ParsePair(args);
  if (!pair) return 2;
  const auto seeds = args.GetUintInRange("seeds", 1, 1, UINT32_MAX);
  if (!Ok(seeds)) return 2;
  const auto seed_count = static_cast<uint32_t>(*seeds);
  Study study(options);
  auto scan = study.RunScan(pair->domain, pair->attr);
  if (!Ok(scan)) return 1;
  const auto graph = BipartiteGraph::FromHostTable(
      scan->table, options.ScaledEntities());
  const auto diameter = ExactDiameter(graph, 20000, &study.pool());
  Rng rng(options.seed ^ 0xb0075ULL);
  auto stats = BootstrapRandomSeeds(graph, seed_count, 25, rng);
  if (!Ok(stats)) return 1;
  std::cout << "graph diameter " << diameter.diameter << " (bound: at most "
            << (diameter.diameter + 1) / 2 << " iterations)\n"
            << "random " << seed_count << "-seed trials: iterations mean "
            << FormatF(stats->iterations.mean(), 1) << ", max "
            << FormatF(stats->iterations.max(), 0) << "; recall mean "
            << FormatPct(stats->recall.mean()) << "; "
            << stats->trials_reaching_giant << "/" << stats->trials
            << " reach the giant component\n";
  return 0;
}

int CmdGenCache(const Args& args, const StudyOptions& options) {
  const auto pair = ParsePair(args);
  if (!pair) return 2;
  const std::string out = args.GetOr("out", "web_cache.bin");
  Study study(options);
  auto web = study.BuildWeb(pair->domain, pair->attr);
  if (!Ok(web)) return 1;
  WebCacheWriter writer;
  Status status = writer.Open(out);
  for (SiteId s = 0; status.ok() && s < web->num_hosts(); ++s) {
    web->GeneratePages(s, [&](const Page& page, const PageTruth&) {
      if (status.ok()) status = writer.Append(page);
    });
  }
  if (status.ok()) status = writer.Close();
  if (!Ok(status)) return 1;
  std::cout << "wrote " << writer.pages_written() << " pages to " << out
            << "\n";
  return 0;
}

// --table-out: dumps the host table as TSV; returns the exit code.
int MaybeWriteHostTable(const Args& args, const HostEntityTable& table) {
  const auto out = args.Get("table-out");
  if (!out.has_value()) return 0;
  if (!Ok(table.WriteTsv(*out))) return 1;
  std::cout << "wrote host table to " << *out << "\n";
  return 0;
}

void PrintScanStats(const ScanStats& stats) {
  std::cout << "scanned " << stats.pages_scanned << " pages ("
            << stats.bytes_scanned / (1024 * 1024) << " MiB) across "
            << stats.hosts_scanned << " hosts; matched "
            << stats.entity_mentions << " mentions in "
            << FormatF(stats.wall_seconds, 2) << "s\n";
}

int CmdScanCache(const Args& args, const StudyOptions& options) {
  const auto pair = ParsePair(args);
  if (!pair) return 2;
  const std::string in = args.GetOr("in", "web_cache.bin");
  // The catalog must match the one the cache was generated against:
  // same domain, entities and seed.
  auto catalog = DomainCatalog::Build(pair->domain, options.ScaledEntities(),
                                      options.seed);
  if (!Ok(catalog)) return 1;
  std::optional<ReviewDetector> detector;
  if (GetAttributeSpec(pair->attr).review_channel) {
    auto built = ReviewDetector::CreateDefault(options.seed ^ 0xdecafULL);
    if (!Ok(built)) return 1;
    detector.emplace(std::move(built).value());
  }
  auto result = ScanCacheFile(in, *catalog, pair->attr,
                              detector ? &*detector : nullptr);
  if (!Ok(result)) return 1;
  PrintScanStats(result->stats);
  auto curve = ComputeKCoverage(
      result->table, catalog->size(), 10,
      DefaultCoverageTValues(
          static_cast<uint32_t>(result->table.num_hosts())));
  if (curve.ok()) {
    PrintCoverageCurve("k-coverage from the cache scan", *curve, std::cout);
  }
  return MaybeWriteHostTable(args, result->table);
}

// One §3.1 cache scan. --out persists the result as an aligned binary
// snapshot with provenance (store/snapshot.h) — the same format the
// artifact store caches — and --table-out dumps the host table as TSV.
//
// --shard i/n scans only the hosts of corpus slice i (1-based) and
// requires --out: the snapshot is the product of a shard scan, to be
// recombined with `wsdctl merge`. Shard snapshots (and whole scans run
// with --canonical) are written in canonical form — hosts sorted by
// name, wall time zeroed — so a merged 1..n sweep is byte-identical to
// the monolithic `--canonical` snapshot (cmp-able in CI).
int CmdScan(const Args& args, const StudyOptions& options) {
  const auto pair = ParsePair(args);
  if (!pair) return 2;
  ShardSpec shard;
  if (auto v = args.Get("shard")) {
    auto parsed = ShardSpec::Parse(*v);
    if (!Ok(parsed)) return 2;
    shard = *parsed;
  }
  const bool canonical = args.Has("canonical") || !shard.whole();
  Study study(options);

  ScanResult result;
  if (!shard.whole()) {
    if (!args.Get("out")) {
      std::cerr << "--shard requires --out: the per-shard snapshot is "
                   "the product of a shard scan\n";
      return 2;
    }
    auto scanned = study.RunShardScan(pair->domain, pair->attr, shard);
    if (!Ok(scanned)) return 1;
    result = std::move(scanned).value();
  } else {
    auto scan = study.Scan(pair->domain, pair->attr);
    if (!Ok(scan)) return 1;
    result = scan->result();
  }
  if (canonical && !Ok(CanonicalizeScanResult(&result))) return 1;
  PrintScanStats(result.stats);
  if (auto out = args.Get("out")) {
    ArtifactKey key;
    key.domain = pair->domain;
    key.attr = pair->attr;
    key.num_entities = options.num_entities;
    key.seed = options.seed;
    key.scale = options.scale;
    key.legacy_scan = options.legacy_scan;
    SnapshotMeta meta = key.Meta();
    meta.shard_index = shard.index;
    meta.shard_count = shard.count;
    if (!Ok(WriteSnapshotFileAligned(*out, result, meta))) return 1;
    std::cout << "wrote snapshot to " << *out << "\n";
  }
  return MaybeWriteHostTable(args, result.table);
}

// Recombines per-shard snapshots into the monolithic canonical snapshot
// (store/merge.h validates provenance, completeness and host ownership
// and fails closed — no partial output file). --out writes the merged
// snapshot; --artifacts=DIR additionally installs it into the artifact
// store under the key its provenance describes, so warm Study/wsdd runs
// resolve straight through it via the mmap path.
int CmdMerge(const Args& args) {
  const std::vector<std::string>& positional = args.positional();
  const std::vector<std::string> inputs(positional.begin() + 1,
                                        positional.end());
  const auto out = args.Get("out");
  const auto artifacts = args.Get("artifacts");
  if (inputs.empty()) {
    std::cerr << "merge needs at least one input snapshot (wsdctl merge "
                 "shard1.wsdsnap shard2.wsdsnap ...)\n";
    return 2;
  }
  if (!out && !artifacts) {
    std::cerr << "merge needs --out=FILE and/or --artifacts=DIR\n";
    return 2;
  }

  std::vector<ParsedSnapshot> shards;
  shards.reserve(inputs.size());
  for (const std::string& path : inputs) {
    auto loaded = LoadSnapshotFile(path);
    if (!loaded.ok()) {
      std::cerr << path << ": " << loaded.status() << "\n";
      return 1;
    }
    shards.push_back(std::move(loaded).value());
  }
  auto merged = MergeSnapshots(std::move(shards));
  if (!Ok(merged)) return 1;
  const ScanStats& stats = merged->result.stats;
  std::cout << "merged " << inputs.size() << " shard(s): "
            << merged->result.table.num_hosts() << " hosts, "
            << stats.pages_scanned << " pages, " << stats.entity_mentions
            << " mentions\n";
  if (out) {
    if (!Ok(WriteSnapshotFileAligned(*out, merged->result, merged->meta))) {
      return 1;
    }
    std::cout << "wrote merged snapshot to " << *out << "\n";
  }
  if (artifacts) {
    const ArtifactStore store{*artifacts};
    const ArtifactKey key = ArtifactKey::FromMeta(merged->meta);
    if (!Ok(store.Store(key, merged->result))) return 1;
    std::cout << "installed artifact " << store.PathFor(key) << "\n";
  }
  return MaybeWriteHostTable(args, merged->result.table);
}

// Fig 7's claim as a number: the largest fall of the mean search demand
// z-score from one occupied review bin to the next (0 when it never
// falls). Undefined with fewer than two occupied bins.
std::optional<double> LargestDemandDrop(
    const std::vector<ReviewBinStat>& bins) {
  std::optional<double> prev;
  double drop = 0.0;
  size_t occupied = 0;
  for (const ReviewBinStat& bin : bins) {
    if (bin.num_entities == 0) continue;
    if (prev) drop = std::max(drop, *prev - bin.mean_search_z);
    prev = bin.mean_search_z;
    ++occupied;
  }
  if (occupied < 2) return std::nullopt;
  return drop;
}

// Fig 8's shape: VA(n)/VA(0) (search) of the first, highest and last bins
// with at least 10 entities. Undefined with fewer than three such bins.
struct ValueAddShape {
  double first = 0.0;
  double peak = 0.0;
  double last = 0.0;
};

std::optional<ValueAddShape> ShapeOf(const std::vector<ReviewBinStat>& bins) {
  std::vector<double> va;
  for (const ReviewBinStat& bin : bins) {
    if (bin.num_entities >= 10) va.push_back(bin.rel_va_search);
  }
  if (va.size() < 3) return std::nullopt;
  return ValueAddShape{va.front(), *std::max_element(va.begin(), va.end()),
                       va.back()};
}

// Runs every experiment and writes one TSV per figure/table into
// --outdir (created by the caller), then the anchor table: each claim
// the paper states as a number, measured in the block that writes its
// figure and checked against its band (EXPERIMENTS.md, "Anchor bands").
// The single-command "reproduce the paper" entry point. Any failure is
// printed and exits 1; an anchor out of its band is a row, not a
// failure.
int CmdPaper(const Args& args, const StudyOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::string outdir = args.GetOr("outdir", "paper_out");
  Study study(options);
  std::vector<Anchor> anchors;
  auto anchor = [&](const char* figure, std::string claim, const char* paper,
                    std::optional<double> measured, double lo, double hi,
                    const char* note = "") {
    anchors.push_back(
        {figure, std::move(claim), paper, measured, lo, hi, note});
  };
  auto write = [&](const std::string& name, std::string_view tsv) {
    const std::string path = outdir + "/" + name + ".tsv";
    if (!WriteOutput(path, tsv)) return false;
    std::cout << "  wrote " << path << "\n";
    return true;
  };
  auto write_spread = [&](const std::string& name, Domain d,
                          Attribute a) -> std::optional<CoverageCurve> {
    auto scan = study.Scan(d, a);
    if (!Ok(scan)) return std::nullopt;
    auto spread = study.RunSpread(*scan);
    if (!Ok(spread) ||
        !write(name, SpreadBody(d, a, spread->curve, WireFormat::kTsv))) {
      return std::nullopt;
    }
    return std::move(spread->curve);
  };

  // Figures 1-3; the restaurants panels of Figs 1 and 2 carry anchors.
  for (const auto& [prefix, attr] :
       {std::pair{"fig1_phone", Attribute::kPhone},
        std::pair{"fig2_homepage", Attribute::kHomepage}}) {
    for (Domain domain : LocalBusinessDomains()) {
      std::string name =
          std::string(prefix) + "_" + ToLower(DomainName(domain));
      for (char& c : name) {
        if (!IsAlnum(c) && c != '_') c = '_';
      }
      const auto curve = write_spread(name, domain, attr);
      if (!curve) return 1;
      if (domain != Domain::kRestaurants) continue;
      if (attr == Attribute::kPhone) {
        anchor("Fig 1", "restaurants top-10 sites, k=1 (%)", "~93%",
               100 * CoverageAt(*curve, 10, 1), 88, 98);
        anchor("Fig 1", "restaurants top-100 sites, k=1 (%)", "close to 100%",
               100 * CoverageAt(*curve, 100, 1), 95, 100,
               "Known deviation 4");
        anchor("Fig 1", "restaurants top-5000 sites, k=5 (%)", "~90%",
               100 * CoverageAt(*curve, 5000, 5), 85, 95);
      } else {
        anchor("Fig 2", "restaurants top-10000 sites, k=1 (%)",
               ">= 10,000 sites for 95%", 100 * CoverageAt(*curve, 10000, 1),
               90, 100);
        anchor("Fig 2", "restaurants top-10 sites, k=1 (%)",
               "visibly lower than Fig 1(a)'s ~93%",
               100 * CoverageAt(*curve, 10, 1), 0, 88);
      }
    }
  }
  if (!write_spread("fig3_isbn_books", Domain::kBooks, Attribute::kIsbn)) {
    return 1;
  }
  // Figure 4.
  {
    auto scan = study.Scan(Domain::kRestaurants, Attribute::kReviews);
    if (!Ok(scan)) return 1;
    auto result = study.RunReviewSpread(*scan);
    if (!Ok(result)) return 1;
    if (!write("fig4a_reviews_sites",
               SpreadBody(Domain::kRestaurants, Attribute::kReviews,
                          result->site_curve, WireFormat::kTsv))) {
      return 1;
    }
    std::string pages = "t\tpage_fraction\n";
    for (size_t i = 0; i < result->page_curve.t_values.size(); ++i) {
      AppendFormat(&pages, "%u\t%.6f\n", result->page_curve.t_values[i],
                   result->page_curve.page_fraction[i]);
    }
    if (!write("fig4b_reviews_pages", pages)) return 1;
    anchor("Fig 4", "top-1000 sites, k=1 (%)", "~90-95%",
           100 * CoverageAt(result->site_curve, 1000, 1), 85, 100);
    anchor("Fig 4", "top-5000 sites, k=2 (%)", "~90%",
           100 * CoverageAt(result->site_curve, 5000, 2), 85, 95);
    anchor("Fig 4", "review pages on the top-1000 sites (%)", "~80%",
           100 * CoverageAt(result->page_curve, 1000), 75, 85);
  }
  // Figure 5.
  {
    auto scan = study.Scan(Domain::kRestaurants, Attribute::kHomepage);
    if (!Ok(scan)) return 1;
    auto curve = study.RunSetCover(*scan);
    if (!Ok(curve) ||
        !write("fig5_setcover",
               SetCoverBody(Domain::kRestaurants, Attribute::kHomepage,
                            *curve, WireFormat::kTsv))) {
      return 1;
    }
    double gain = 0.0;
    for (size_t i = 0; i < curve->t_values.size(); ++i) {
      if (curve->t_values[i] > 1000) break;
      gain = std::max(gain,
                      curve->greedy_coverage[i] - curve->size_coverage[i]);
    }
    anchor("Fig 5", "greedy minus size ordering, max over t <= 1000 (points)",
           "slight / insignificant", 100 * gain, -5, 5);
  }
  // Figures 6-8.
  for (TrafficSite site : {TrafficSite::kAmazon, TrafficSite::kYelp,
                           TrafficSite::kImdb}) {
    auto result = study.RunValueStudy(site);
    if (!Ok(result)) return 1;
    const std::string lower = ToLower(TrafficSiteName(site));
    std::string cumulative = "inventory_fraction\tsearch\tbrowse\n";
    for (size_t i = 0; i < result->search_curve.size(); ++i) {
      AppendFormat(&cumulative, "%.4f\t%.6f\t%.6f\n",
                   result->search_curve[i].inventory_fraction,
                   result->search_curve[i].demand_fraction,
                   result->browse_curve[i].demand_fraction);
    }
    // Panels (b)/(d): each site's own log-spaced ranks.
    const auto search = RankDemandCurve(result->demand.search_demand, 12);
    const auto browse = RankDemandCurve(result->demand.browse_demand, 12);
    std::string rank = "rank_fraction\tsearch\tbrowse\n";
    for (size_t i = 0; i < std::min(search.size(), browse.size()); ++i) {
      AppendFormat(&rank, "%.6g\t%.6g\t%.6g\n", search[i].rank_fraction,
                   search[i].relative_demand, browse[i].relative_demand);
    }
    if (!write("fig6_demand_" + lower, cumulative) ||
        !write("fig6_rank_" + lower, rank) ||
        !write("fig7_fig8_value_" + lower,
               DemandBody(*result, WireFormat::kTsv))) {
      return 1;
    }

    const std::string name(TrafficSiteName(site));
    const double head20 = 100 * result->head20_search;
    if (site == TrafficSite::kAmazon) {
      anchor("Fig 6", "Amazon top-20% demand share, search (%)", "~70-80%",
             head20, 65, 85);
    } else if (site == TrafficSite::kYelp) {
      anchor("Fig 6", "Yelp top-20% demand share, search (%)", "~60%", head20,
             55, 65);
      anchor("Fig 6", "Yelp top-20% share, browse minus search (points)",
             "browse flatter than search",
             100 * result->head20_browse - head20, -100, -0.001);
    } else {
      anchor("Fig 6", "IMDb top-20% demand share, search (%)", "> 90%",
             head20, 90, 100);
    }
    anchor("Fig 7", name + " largest drop of mean search z between bins",
           "more demand with more reviews", LargestDemandDrop(result->bins),
           0, 0.05);
    const auto shape = ShapeOf(result->bins);
    std::optional<double> rise, fall;
    if (shape) {
      rise = shape->peak - shape->first;
      if (shape->peak > 0) fall = shape->last / shape->peak;
    }
    const std::string rise_claim = name + " VA(n)/VA(0) peak minus first bin";
    if (site != TrafficSite::kImdb) {
      anchor("Fig 8", rise_claim, "decreasing in n", rise, 0, 0.15);
    } else {
      anchor("Fig 8", rise_claim, "humped: rises mid-range", rise, 0.151,
             kInf);
      anchor("Fig 8", name + " VA(n)/VA(0) last bin over peak",
             "humped: falls at the head", fall, 0, 0.799);
    }
    if (site == TrafficSite::kYelp) {
      // §4.3.1's alternative I_delta: no value once n >= 10 reviews.
      ValueAddOptions step;
      step.decay = ValueAddOptions::InfoDecay::kStepAtCutoff;
      auto step_bins =
          AnalyzeValueAddWithOptions(result->demand, result->reviews, step);
      if (!Ok(step_bins)) return 1;
      double head = 0.0;  // the bins from n >= 15 on
      for (size_t i = 4; i < step_bins->size(); ++i) {
        head += (*step_bins)[i].rel_va_search - result->bins[i].rel_va_search;
      }
      anchor("Fig 8",
             "Yelp head-bin (n >= 15) VA sum, step decay minus inverse-linear",
             "step I_delta: even higher tail value-add", head, -kInf, -0.001);
    }
  }
  // Table 2 + Figure 9.
  std::vector<GraphMetricsRow> rows;
  std::string robustness = "domain\tattr\tremoved\tlargest_fraction\n";
  double after_top10[2] = {1.0, 1.0};  // ISBN + phone, homepage graphs
  const bool ok = ForEachGraph(
      study, Table2Pairs(),
      [&](const Study::ScanHandle& scan, const GraphMetricsRow& row) {
        rows.push_back(row);
        auto sweep = study.RunRobustness(scan, 10);
        if (!Ok(sweep)) return false;
        const std::string domain(DomainName(row.domain));
        const std::string attr(AttributeName(row.attr));
        for (const auto& point : *sweep) {
          AppendFormat(&robustness, "%s\t%s\t%u\t%.6f\n", domain.c_str(),
                       attr.c_str(), point.removed_sites,
                       point.largest_component_entity_fraction);
        }
        double& worst = after_top10[row.attr == Attribute::kHomepage];
        worst =
            std::min(worst, sweep->back().largest_component_entity_fraction);
        return true;
      });
  if (!ok || !write("table2_graphs", GraphTableTsv(rows)) ||
      !write("fig9_robustness", robustness)) {
    return 1;
  }
  const auto [min_d, max_d] = std::minmax_element(
      rows.begin(), rows.end(),
      [](const auto& a, const auto& b) { return a.diameter < b.diameter; });
  double largest = 100.0;
  for (const GraphMetricsRow& row : rows) {
    largest = std::min(largest, row.largest_component_entity_pct);
  }
  anchor("Table 2", "smallest diameter (hops)", "6-8", min_d->diameter, 6, 8);
  anchor("Table 2", "largest diameter (hops)", "6-8", max_d->diameter, 6, 9,
         "Known deviation 2");
  anchor("Table 2", "largest component, worst graph (%)", ">= 97.87%",
         largest, 97.87, 100);
  anchor("Fig 9",
         "ISBN + phone graphs without their top 10 sites, largest "
         "component, worst graph (%)",
         "> 99%", 100 * after_top10[0], 99, 100);
  anchor("Fig 9",
         "homepage graphs without their top 10 sites, largest component, "
         "worst graph (%)",
         "> 90%", 100 * after_top10[1], 90, 100);

  // In figure order: the value studies above interleave Figs 6-8.
  std::stable_sort(anchors.begin(), anchors.end(),
                   [](const Anchor& a, const Anchor& b) {
                     return a.figure < b.figure;
                   });
  const std::string table = AnchorTableTsv(anchors);
  std::cout << "\n" << table << "\n";
  if (!write("anchors", table)) return 1;
  std::cout << "done: all figures/tables written under " << outdir << "\n";
  return 0;
}

int RunCommand(const std::string& command, const Args& args);

// Observability entry point: `wsdctl metrics [command ...]` runs the
// nested command (any other subcommand, flags shared) — or, with no
// nested command, a default cache scan honoring --domain/--attr — then
// prints the populated metrics registry to stdout. --format=json selects
// the JSON exporter over the Prometheus text default.
int CmdMetrics(const Args& args, const StudyOptions& options) {
  int rc = 0;
  if (args.positional().size() > 1 && args.positional()[1] != "metrics") {
    rc = RunCommand(args.positional()[1], args);
  } else {
    const auto pair = ParsePair(args);
    if (!pair) return 2;
    Study study(options);
    auto scan = study.RunScan(pair->domain, pair->attr);
    if (!Ok(scan)) return 1;
    std::cout << "scanned " << scan->stats.pages_scanned << " pages across "
              << scan->stats.hosts_scanned << " hosts in "
              << FormatF(scan->stats.wall_seconds, 2) << "s\n\n";
  }
  auto& registry = MetricsRegistry::Global();
  if (args.GetOr("format", "prom") == "json") {
    std::cout << registry.ToJson() << "\n";
  } else {
    std::cout << registry.ToPrometheus();
  }
  return rc;
}

int CmdHelp() {
  std::cout <<
      "wsdctl — driver for the webspread study\n\n"
      "usage: wsdctl <command> [flags]\n\n"
      "commands:\n"
      "  domains     print Table 1 (domains and attributes)\n"
      "  spread      k-coverage curves      --domain --attr [--out f.tsv]\n"
      "  reviews     Fig 4 review coverage  [--out f.tsv]\n"
      "  setcover    Fig 5 greedy ordering  --domain --attr\n"
      "  graph       Table 2 metrics        --domain --attr | --all\n"
      "  robustness  Fig 9 sweep            --domain --attr\n"
      "  value       §4 value study         --site "
      << TrafficSiteVocabulary('|') << "\n"
      "  bootstrap   set-expansion trials   --domain --attr [--seeds N]\n"
      "  gen-cache   persist a synthetic web --domain --attr --out f.bin\n"
      "  scan-cache  scan a persisted cache  --domain --attr --in f.bin\n"
      "  scan        run one cache scan      --domain --attr\n"
      "              [--out snap.wsdsnap] [--table-out f.tsv]\n"
      "              [--shard i/n  scan corpus slice i of n (needs --out)]\n"
      "              [--canonical  emit canonical (merge-comparable) form]\n"
      "  merge       recombine shard snapshots  s1.wsdsnap s2.wsdsnap ...\n"
      "              [--out merged.wsdsnap] [--artifacts DIR]\n"
      "              [--table-out f.tsv]\n"
      "  paper       run EVERY experiment, TSVs into --outdir, then\n"
      "              anchors.tsv: each numeric claim vs its band\n"
      "  metrics     run a command (default: a scan), then dump the\n"
      "              metrics registry        [command ...] [--format json]\n\n"
      "common flags: --entities=N --seed=N --scale=F --threads=N\n"
      "              --artifacts=DIR  (cache scans as on-disk snapshots;\n"
      "               reruns with the same options skip the scan)\n"
      "              --metrics_out=f.json  (dump registry after any run)\n"
      "domains: " << DomainVocabulary(' ') << "\n"
      "attributes: " << AttributeVocabulary(' ') << "\n";
  return 0;
}

int RunCommand(const std::string& command, const Args& args) {
  if (command == "help" || command == "--help") return CmdHelp();
  if (command == "domains") return CmdDomains(args);
  if (command == "merge") return CmdMerge(args);
  // A malformed study flag is a usage error for every command that runs
  // the study.
  const auto options = StudyOptions::FromFlags(args);
  if (!Ok(options)) return 2;
  if (command == "spread") return CmdSpread(args, *options);
  if (command == "reviews") return CmdReviews(args, *options);
  if (command == "setcover") return CmdSetCover(args, *options);
  if (command == "graph") return CmdGraph(args, *options);
  if (command == "robustness") return CmdRobustness(args, *options);
  if (command == "value") return CmdValue(args, *options);
  if (command == "bootstrap") return CmdBootstrap(args, *options);
  if (command == "gen-cache") return CmdGenCache(args, *options);
  if (command == "scan-cache") return CmdScanCache(args, *options);
  if (command == "scan") return CmdScan(args, *options);
  if (command == "paper") return CmdPaper(args, *options);
  if (command == "metrics") return CmdMetrics(args, *options);
  std::cerr << "unknown command '" << command << "'; see wsdctl help\n";
  return 2;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional().empty()) return CmdHelp();
  const int rc = RunCommand(args.positional()[0], args);
  // --metrics_out works for every command: after the run, persist the
  // registry as machine-readable JSON.
  if (auto out = args.Get("metrics_out")) {
    if (!WriteOutput(*out, MetricsRegistry::Global().ToJson() + "\n")) {
      return rc == 0 ? 1 : rc;
    }
    std::cout << "wrote metrics to " << *out << "\n";
  }
  return rc;
}

}  // namespace
}  // namespace wsd

int main(int argc, char** argv) { return wsd::Main(argc, argv); }
