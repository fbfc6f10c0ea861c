// analyze_warm: the read side of the artifact store plus the analyses.
// Set-up fills an artifact directory with cold scans of every paper
// pair; each pass then loads every pair with ArtifactStore::Load (mmap)
// and runs k-coverage, greedy set cover, the Table 2 graph metrics
// (graph build, components, exact diameter — the calls
// ComputeGraphMetrics makes), the robustness sweep and, for reviews, page
// coverage, then the §4 value study for amazon, yelp and imdb. No scan
// may run: the wsd.scan.runs delta of every pass must be 0.
// The scanned corpus is the same in every run (kCorpusSeed); --seed draws
// the value studies' traffic.

#include <iostream>
#include <optional>

#include "core/connectivity.h"
#include "core/coverage.h"
#include "core/review_coverage.h"
#include "core/set_cover.h"
#include "graph/components.h"
#include "graph/diameter.h"
#include "serve/endpoints.h"
#include "store/artifact_store.h"
#include "traffic/demand.h"
#include "traffic/traffic_log.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr wsd::TrafficSite kSites[] = {wsd::TrafficSite::kAmazon,
                                       wsd::TrafficSite::kYelp,
                                       wsd::TrafficSite::kImdb};

struct AnalyzePass {
  std::vector<double> op_ms;
  std::vector<std::pair<std::string, uint64_t>> digests;
  double wall_s = 0;
  double cpu_s = 0;
  double pool_idle_frac = 0;
  uint64_t artifact_hits = 0;
  uint64_t scan_runs = 0;
  uint64_t read_bytes = 0;
  uint64_t mmap_loads = 0;
  uint64_t bfs_runs = 0;
  std::string error;
};

std::string RobustnessText(const std::vector<wsd::RobustnessPoint>& points) {
  std::string out;
  for (const auto& p : points) {
    wsd::AppendFormat(&out, "%u\t%u\t%.6f\n", p.removed_sites, p.num_components,
                      p.largest_component_entity_fraction);
  }
  return out;
}

std::string PageCoverageText(const wsd::PageCoverageCurve& curve) {
  std::string out = std::to_string(curve.total_pages) + "\n";
  for (size_t i = 0; i < curve.t_values.size(); ++i) {
    wsd::AppendFormat(&out, "%u\t%.6f\n", curve.t_values[i], curve.page_fraction[i]);
  }
  return out;
}

// Everything one pair's analyses produce, rendered for digesting.
struct PairOutputs {
  std::string spread, setcover, graph, robustness, page_coverage;
};

// Loads one pair and runs its analyses; the timed region of one
// operation. Returns an error message or "".
std::string AnalyzePair(const wsd::StudyOptions& options, const Pair& pair,
                        const wsd::ArtifactStore& store, wsd::ThreadPool* pool,
                        uint32_t* bfs_runs, PairOutputs* out) {
  std::optional<wsd::StatusOr<wsd::ScanResult>> loaded;
  {
    const Span span("store.load");
    loaded.emplace(store.Load(KeyFor(options, pair)));
  }
  if (!loaded->ok()) return "load: " + loaded->status().ToString();
  const wsd::HostEntityTable& table = (*loaded)->table;
  const uint32_t entities = options.ScaledEntities();
  const auto t_values =
      wsd::DefaultCoverageTValues(static_cast<uint32_t>(table.num_hosts()));
  std::optional<wsd::StatusOr<wsd::CoverageCurve>> spread;
  {
    const Span span("core.kcoverage");
    spread.emplace(wsd::ComputeKCoverage(table, entities, 10, t_values));
  }
  std::optional<wsd::StatusOr<wsd::SetCoverCurve>> cover;
  {
    const Span span("core.setcover");
    cover.emplace(wsd::GreedySetCover(table, entities, t_values));
  }
  if (!spread->ok() || !cover->ok()) return "coverage analysis failed";
  wsd::GraphMetricsRow row;
  row.domain = pair.domain;
  row.attr = pair.attr;
  {
    const Span graph_span("graph.metrics");
    std::optional<wsd::BipartiteGraph> graph;
    {
      const Span span("graph.build");
      graph.emplace(wsd::BipartiteGraph::FromHostTable(table, entities));
    }
    if (graph->num_edges() == 0) return "graph has no edges";
    row.avg_sites_per_entity = graph->AvgSitesPerEntity();
    row.num_covered_entities = graph->num_covered_entities();
    row.num_sites = graph->num_sites();
    row.num_edges = graph->num_edges();
    wsd::ComponentSummary comps;
    {
      const Span span("graph.components");
      comps = wsd::AnalyzeComponents(*graph, pool);
    }
    row.num_components = comps.num_components;
    row.largest_component_entity_pct =
        comps.largest_component_entity_fraction * 100.0;
    wsd::DiameterResult diameter;
    {
      const Span span("graph.diameter");
      diameter = wsd::ExactDiameter(*graph, 20000, pool);
    }
    row.diameter = diameter.diameter;
    row.diameter_bfs_runs = diameter.bfs_runs;
    *bfs_runs += diameter.bfs_runs;
  }
  std::vector<wsd::RobustnessPoint> robustness;
  {
    const Span span("core.robustness");
    robustness = wsd::ComputeRobustness(table, entities, 10, pool);
  }
  if (pair.attr == wsd::Attribute::kReviews) {
    std::optional<wsd::StatusOr<wsd::PageCoverageCurve>> pages;
    {
      const Span span("core.page_coverage");
      pages.emplace(wsd::ComputePageCoverage(table, t_values));
    }
    if (!pages->ok()) return "page coverage failed";
    out->page_coverage = PageCoverageText(**pages);
  }
  out->spread = wsd::SpreadBody(pair.domain, pair.attr, **spread, wsd::WireFormat::kJson);
  out->setcover =
      wsd::SetCoverBody(pair.domain, pair.attr, **cover, wsd::WireFormat::kJson);
  out->graph = wsd::GraphBody(row, wsd::WireFormat::kJson);
  out->robustness = RobustnessText(robustness);
  return "";
}

// One pass over the stored corpus of `options`, with the value studies
// drawn from `traffic_seed`.
AnalyzePass RunAnalyzePass(const wsd::StudyOptions& options, uint64_t traffic_seed,
                           uint64_t pass_id) {
  AnalyzePass pass;
  wsd::StudyOptions study_options = options;
  study_options.artifact_dir.clear();
  study_options.seed = traffic_seed;
  wsd::Study study(study_options);
  const wsd::ArtifactStore store(options.artifact_dir);
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  const uint64_t read0 = CounterValue("wsd.artifact.read_bytes");
  const uint64_t mmap0 = CounterValue("wsd.store.mmap_loads");
  const uint64_t idle0 = CounterValue("wsd.pool.worker_idle_us");
  auto timed = [&](uint64_t run_id, auto&& body) {
    const double cpu0 = SelfCpuSeconds();
    const int64_t t0 = NowNs();
    {
      const Span span("core.analyze_op", run_id);
      body();
    }
    const int64_t t1 = NowNs();
    pass.cpu_s += SelfCpuSeconds() - cpu0;
    pass.wall_s += 1e-9 * static_cast<double>(t1 - t0);
    pass.op_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
  };
  const auto& pairs = PaperPairs();
  for (size_t i = 0; i < pairs.size(); ++i) {
    PairOutputs outputs;
    uint32_t bfs = 0;
    std::string error;
    timed(pass_id * 1000 + i + 1, [&] {
      error = AnalyzePair(options, pairs[i], store, &study.pool(), &bfs, &outputs);
    });
    if (!error.empty()) {
      pass.error = PairName(pairs[i]) + ": " + error;
      return pass;
    }
    pass.bfs_runs += bfs;
    const std::string name = PairName(pairs[i]);
    pass.digests.push_back({"spread/" + name, Digest(outputs.spread)});
    pass.digests.push_back({"setcover/" + name, Digest(outputs.setcover)});
    pass.digests.push_back({"graph/" + name, Digest(outputs.graph)});
    pass.digests.push_back({"robustness/" + name, Digest(outputs.robustness)});
    if (!outputs.page_coverage.empty()) {
      pass.digests.push_back({"pagecov/" + name, Digest(outputs.page_coverage)});
    }
  }
  for (size_t i = 0; i < std::size(kSites); ++i) {
    std::optional<wsd::StatusOr<wsd::Study::ValueStudyResult>> value;
    timed(pass_id * 1000 + 100 + i, [&] {
      const Span span("traffic.value_study");
      value.emplace(study.RunValueStudy(kSites[i]));
    });
    if (!value->ok()) {
      pass.error = "value study: " + value->status().ToString();
      return pass;
    }
    pass.digests.push_back(
        {"demand/" + std::string(wsd::TrafficSiteName(kSites[i])),
         Digest(wsd::DemandBody(**value, wsd::WireFormat::kJson))});
  }
  pass.artifact_hits = CounterValue("wsd.artifact.hits") - hits0;
  pass.scan_runs = CounterValue("wsd.scan.runs") - runs0;
  pass.read_bytes = CounterValue("wsd.artifact.read_bytes") - read0;
  pass.mmap_loads = CounterValue("wsd.store.mmap_loads") - mmap0;
  const double idle_s =
      1e-6 * static_cast<double>(CounterValue("wsd.pool.worker_idle_us") - idle0);
  pass.pool_idle_frac = idle_s / (kWorkers * pass.wall_s);
  return pass;
}

void CheckPass(const AnalyzePass& pass,
               const std::map<std::string, uint64_t>& reference,
               const std::string& label, OutputCheck* check) {
  if (!pass.error.empty()) {
    check->Fail(label, pass.error);
    return;
  }
  for (const auto& [name, digest] : pass.digests) {
    check->Check(label + "/" + name, Lookup(reference, name), digest);
  }
  if (pass.scan_runs != 0 || pass.artifact_hits != PaperPairs().size()) {
    check->Fail(label + "/isolation",
                "scan runs " + std::to_string(pass.scan_runs) + ", artifact hits " +
                    std::to_string(pass.artifact_hits) +
                    " (want 0 runs, one hit per pair)");
  } else {
    check->Pass();
  }
}

// Cold scans of every pair into `dir` (Study::Scan writes each through
// ArtifactStore::Store).
std::string FillArtifacts(const wsd::StudyOptions& options) {
  ResetDir(options.artifact_dir);
  wsd::Study study(options);
  for (const Pair& pair : PaperPairs()) {
    auto scan = study.Scan(pair.domain, pair.attr);
    if (!scan.ok()) return PairName(pair) + ": " + scan.status().ToString();
  }
  return "";
}

// Event counts and generation/estimation time of the three value
// studies' traffic logs, replayed with the parameters RunValueStudy uses:
// once into an empty sink, once into a DemandEstimator.
void TrafficBreakdown(const wsd::StudyOptions& options,
                      std::map<std::string, double>* layers) {
  uint64_t events = 0;
  double generate_s = 0, generate_estimate_s = 0;
  for (wsd::TrafficSite site : kSites) {
    wsd::TrafficSiteParams params = wsd::DefaultTrafficParams(site);
    params.num_entities = std::max<uint32_t>(
        256, static_cast<uint32_t>(static_cast<double>(params.num_entities) *
                                   options.scale));
    const wsd::SitePopulation population =
        wsd::BuildPopulation(params, options.seed ^ 0x7eaf1cULL);
    const wsd::TrafficLogGenerator generator(population, wsd::TrafficLogOptions{},
                                             options.seed ^ 0x10656e1ULL);
    {
      const Span span("traffic.generate");
      const int64_t t0 = NowNs();
      for (auto channel : {wsd::TrafficChannel::kSearch, wsd::TrafficChannel::kBrowse}) {
        generator.Generate(channel, [&](const wsd::VisitEvent&) { ++events; });
      }
      generate_s += SecondsSince(t0);
    }
    {
      const Span span("traffic.generate_estimate");
      const int64_t t0 = NowNs();
      wsd::DemandEstimator estimator(site, params.num_entities);
      for (auto channel : {wsd::TrafficChannel::kSearch, wsd::TrafficChannel::kBrowse}) {
        generator.Generate(channel,
                           [&](const wsd::VisitEvent& e) { estimator.Consume(e); });
      }
      const wsd::DemandTable table = estimator.Finalize();
      generate_estimate_s += SecondsSince(t0);
    }
  }
  (*layers)["traffic.generate_s"] = generate_s;
  (*layers)["traffic.estimate_s"] = generate_estimate_s - generate_s;
  (*layers)["traffic.events"] = static_cast<double>(events);
}

}  // namespace

int RunAnalyzeWarm(const RunOptions& run) {
  const auto digests = LoadDigests(run.bench_dir + "/digests.txt");
  OutputCheck check;
  Report report;
  report.Note(EnvHeaderJson(run, {{"entities", std::to_string(kEntities)},
                                  {"scale", std::to_string(kBatchScale)},
                                  {"corpus_seed", std::to_string(kCorpusSeed)},
                                  {"traffic_seed", std::to_string(run.seed)},
                                  {"pairs", std::to_string(PaperPairs().size())},
                                  {"value_studies", "amazon,yelp,imdb"},
                                  {"workers", std::to_string(kWorkers)},
                                  {"canary_seed", std::to_string(kCanarySeed)},
                                  {"canary_scale", std::to_string(kCanaryScale)}}));

  // Canary: the recorded corpus's analyses against digests.txt.
  {
    const wsd::StudyOptions canary =
        BatchOptions(kCanarySeed, kCanaryScale, run.work_dir + "/canary");
    const std::string error = FillArtifacts(canary);
    if (!error.empty()) check.Fail("canary", error);
    const AnalyzePass pass = RunAnalyzePass(canary, canary.seed, 0);
    if (run.record_digests) {
      for (const auto& [name, digest] : pass.digests) {
        std::cout << name << " " << Hex(digest) << "\n";
      }
    }
    CheckPass(pass, digests, "canary", &check);
  }

  // Set-up: fill the artifact store with cold scans, three times;
  // setup_s is the median.
  const wsd::StudyOptions base =
      BatchOptions(kCorpusSeed, kBatchScale, run.work_dir + "/artifacts");
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = NowNs();
    const std::string error = FillArtifacts(base);
    setups.push_back(SecondsSince(t0));
    if (!error.empty()) check.Fail("setup", error);
  }
  const double setup_s = MedianOf(setups);
  // peak_rss_mb covers the loads and analyses, not the set-up scans.
  ResetPeakRss();

  std::map<std::string, uint64_t> reference;
  PassLog log;
  for (const Pair& pair : PaperPairs()) log.op_names.push_back(PairName(pair));
  for (wsd::TrafficSite site : kSites) {
    log.op_names.push_back("value/" + std::string(wsd::TrafficSiteName(site)));
  }
  std::vector<double> traced_walls, untraced_walls, traced_idle;
  AnalyzePass last_traced;
  uint64_t pass_id = 0;
  auto measure = [&](bool traced) {
    ++pass_id;
    Tracer::Get().set_enabled(traced);
    AnalyzePass pass = RunAnalyzePass(base, run.seed, pass_id);
    Tracer::Get().set_enabled(false);
    if (reference.empty() && pass.error.empty()) {
      reference.insert(pass.digests.begin(), pass.digests.end());
    }
    CheckPass(pass, reference, "pass" + std::to_string(pass_id), &check);
    if (traced) {
      traced_walls.push_back(pass.wall_s);
      traced_idle.push_back(pass.pool_idle_frac);
      last_traced = std::move(pass);
      return;
    }
    untraced_walls.push_back(pass.wall_s);
    if (!pass.error.empty()) return;
    log.op_ms.insert(log.op_ms.end(), pass.op_ms.begin(), pass.op_ms.end());
    log.pass_wall_s.push_back(pass.wall_s);
    log.pass_units.push_back(static_cast<double>(pass.op_ms.size()));
    log.pass_cpu_s.push_back(pass.cpu_s);
  };

  const int64_t start = NowNs();
  if (!run.trace) {
    while (log.pass_wall_s.size() < 3 || SecondsSince(start) < run.seconds) {
      measure(false);
    }
    ReportBatch(log, setup_s, "operations (pair analyses and value studies)",
                &report);
    return report.Print(check, true);
  }

  Tracer::Get().Reset();
  while (traced_walls.size() < 2 || SecondsSince(start) < 0.7 * run.seconds) {
    measure(false);
    measure(true);
  }
  const auto totals = Tracer::Get().Totals();
  const double passes = static_cast<double>(traced_walls.size());
  auto per_pass = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.seconds() / passes;
  };
  std::map<std::string, double> layers = {
      {"util.pool_idle_frac", MedianOf(traced_idle)},
      {"store.load_s", per_pass("store.load")},
      {"store.read_bytes", static_cast<double>(last_traced.read_bytes)},
      {"store.mmap_loads", static_cast<double>(last_traced.mmap_loads)},
      {"core.kcoverage_s", per_pass("core.kcoverage")},
      {"core.setcover_s", per_pass("core.setcover")},
      {"core.page_coverage_s", per_pass("core.page_coverage")},
      {"core.robustness_s", per_pass("core.robustness")},
      {"graph.build_s", per_pass("graph.build")},
      {"graph.components_s", per_pass("graph.components")},
      {"graph.diameter_s", per_pass("graph.diameter")},
      {"graph.bfs_runs", static_cast<double>(last_traced.bfs_runs)},
      {"trace.overhead_frac", MedianOf(traced_walls) / MedianOf(untraced_walls) - 1},
  };
  Tracer::Get().set_enabled(true);
  wsd::StudyOptions traffic = base;
  traffic.seed = run.seed;
  TrafficBreakdown(traffic, &layers);
  Tracer::Get().set_enabled(false);
  layers["trace.spans"] = static_cast<double>(Tracer::Get().stored());
  report.Note("layer times are seconds per traced pass (" +
              std::to_string(traced_walls.size()) + " traced, " +
              std::to_string(untraced_walls.size()) +
              " untraced passes); traffic times are one replay of the three "
              "value studies' logs");
  ReportLayers(layers, &report);
  if (!Tracer::Get().WriteChromeTrace(run.trace_out)) {
    check.Fail("trace", "could not write " + run.trace_out);
  }
  report.Note("chrome trace: " + run.trace_out + " (" +
              std::to_string(Tracer::Get().stored()) + " spans)");
  return report.Print(check, true);
}

}  // namespace perfbench
