// scan_cold: the §3.1 cache scan of every paper pair into an empty
// artifact store. Each pass calls Study::Scan on a fresh Study whose
// artifact directory is empty, so every scan is live and every result is
// written through ArtifactStore::Store. The traced run replays those
// calls one by one in spans, and adds a per-page breakdown of one pass of
// scans over ScanHostPages and the public per-page functions it calls.

#include <atomic>
#include <iostream>
#include <memory>
#include <optional>

#include "extract/attribute_registry.h"
#include "extract/scan_pipeline.h"
#include "html/text_extract.h"
#include "store/artifact_store.h"
#include "text/tokenizer.h"
#include "util/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct ScanPass {
  std::vector<double> op_ms;
  std::vector<uint64_t> digests;
  uint64_t pages = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double pool_idle_frac = 0;
  double shard_max_over_mean = 0;
  uint64_t write_bytes = 0;
  uint64_t artifact_misses = 0;
  uint64_t artifact_hits = 0;
  uint64_t scan_runs = 0;
  std::string error;
};

// Study::Scan's miss path replayed layer by layer, each call in its own
// span: ArtifactStore::Load (a miss), BuildWeb, ReviewDetector training
// (once per pass), ScanPipeline::Run and ArtifactStore::Store.
std::string ReplayScan(wsd::Study& study, const wsd::ArtifactStore& store,
                       const wsd::ArtifactKey& key, const Pair& pair,
                       std::optional<wsd::ReviewDetector>* detector,
                       std::shared_ptr<const wsd::ScanResult>* out) {
  {
    const Span span("store.load");
    if (store.Load(key).ok()) return "artifact hit in a cold scan";
  }
  std::optional<wsd::StatusOr<wsd::SyntheticWeb>> web;
  {
    const Span span("corpus.build_web");
    web.emplace(study.BuildWeb(pair.domain, pair.attr));
  }
  if (!web->ok()) return web->status().ToString();
  const wsd::ReviewDetector* det = nullptr;
  if (wsd::GetAttributeSpec(pair.attr).review_channel) {
    if (!detector->has_value()) {
      const Span span("text.detector_train");
      auto built = wsd::ReviewDetector::CreateDefault(key.seed ^ 0xdecafULL);
      if (!built.ok()) return built.status().ToString();
      detector->emplace(std::move(built).value());
    }
    det = &**detector;
  }
  std::optional<wsd::StatusOr<wsd::ScanResult>> result;
  {
    const Span span("extract.scan_pipeline_run");
    result.emplace(wsd::ScanPipeline(**web, study.pool(), det).Run());
  }
  if (!result->ok()) return result->status().ToString();
  *out = std::make_shared<const wsd::ScanResult>(std::move(**result));
  const Span span("store.write");
  return store.Store(key, **out).ok() ? "" : "artifact write failed";
}

// One cold pass over every pair into the empty store at
// options.artifact_dir: Study::Scan on a fresh Study, or, with `replay`,
// the same calls made one by one (the traced run's per-layer spans).
// Digests are computed outside the timed windows.
ScanPass RunScanPass(const wsd::StudyOptions& options, uint64_t pass_id,
                     bool replay) {
  ScanPass pass;
  wsd::StudyOptions study_options = options;
  if (replay) study_options.artifact_dir.clear();
  wsd::Study study(study_options);
  const wsd::ArtifactStore store(options.artifact_dir);
  std::optional<wsd::ReviewDetector> detector;
  auto& shard_seconds =
      wsd::MetricsRegistry::Global().GetHistogram("wsd.scan.shard_seconds");
  double ratio_sum = 0, ratio_weight = 0;
  const uint64_t misses0 = CounterValue("wsd.artifact.misses");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  const uint64_t written0 = CounterValue("wsd.artifact.write_bytes");
  const uint64_t idle0 = CounterValue("wsd.pool.worker_idle_us");

  const auto& pairs = PaperPairs();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Pair& pair = pairs[i];
    const wsd::ArtifactKey key = KeyFor(options, pair);
    std::shared_ptr<const wsd::ScanResult> result;
    std::string error;
    shard_seconds.Reset();
    const double cpu0 = SelfCpuSeconds();
    const int64_t t0 = NowNs();
    {
      const Span pair_span("extract.cold_scan", pass_id * 1000 + i + 1);
      if (replay) {
        error = ReplayScan(study, store, key, pair, &detector, &result);
      } else {
        auto handle = study.Scan(pair.domain, pair.attr);
        if (handle.ok()) {
          result = handle->shared_result();
        } else {
          error = handle.status().ToString();
        }
      }
    }
    const int64_t t1 = NowNs();
    if (!error.empty()) {
      pass.error = PairName(pair) + ": " + error;
      return pass;
    }
    // Straggler ratio of this scan's pool shards, weighted by its wall.
    const double op_s = 1e-9 * static_cast<double>(t1 - t0);
    if (shard_seconds.count() > 0 && shard_seconds.sum_seconds() > 0) {
      ratio_sum += op_s * shard_seconds.max_seconds() *
                   static_cast<double>(shard_seconds.count()) /
                   shard_seconds.sum_seconds();
      ratio_weight += op_s;
    }
    pass.cpu_s += SelfCpuSeconds() - cpu0;
    pass.wall_s += op_s;
    pass.op_ms.push_back(1e3 * op_s);
    pass.pages += result->stats.pages_scanned;
    pass.digests.push_back(SnapshotDigest(*result, key));
  }
  pass.artifact_misses = CounterValue("wsd.artifact.misses") - misses0;
  pass.artifact_hits = CounterValue("wsd.artifact.hits") - hits0;
  pass.scan_runs = CounterValue("wsd.scan.runs") - runs0;
  pass.write_bytes = CounterValue("wsd.artifact.write_bytes") - written0;
  const double idle_s =
      1e-6 * static_cast<double>(CounterValue("wsd.pool.worker_idle_us") - idle0);
  pass.pool_idle_frac = idle_s / (kWorkers * pass.wall_s);
  pass.shard_max_over_mean = ratio_weight > 0 ? ratio_sum / ratio_weight : 0;
  return pass;
}

// Checks a pass: the isolation counters, and its digests against the
// reference (the first pass of this run, or the recorded canary).
void CheckPass(const ScanPass& pass, const std::vector<uint64_t>& reference,
               const std::string& label, OutputCheck* check) {
  const auto& pairs = PaperPairs();
  if (!pass.error.empty()) {
    check->Fail(label, pass.error);
    return;
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    check->Check(label + "/" + PairName(pairs[i]),
                 i < reference.size() ? std::optional<uint64_t>(reference[i])
                                      : std::nullopt,
                 pass.digests[i]);
  }
  if (pass.artifact_misses != pairs.size() || pass.artifact_hits != 0 ||
      pass.scan_runs != pairs.size() || pass.write_bytes == 0) {
    check->Fail(label + "/isolation",
                "artifact misses " + std::to_string(pass.artifact_misses) +
                    ", hits " + std::to_string(pass.artifact_hits) +
                    ", scan runs " + std::to_string(pass.scan_runs) +
                    ", bytes written " + std::to_string(pass.write_bytes) +
                    " (want misses = runs = pair count, hits = 0, bytes > 0)");
  } else {
    check->Pass();
  }
}

// Totals of the per-page breakdown. Stage times are thread-nanoseconds
// with the cost of the clock reads around each stage subtracted.
struct Breakdown {
  std::atomic<uint64_t> pages{0}, bytes{0}, text_bytes{0}, mentions{0},
      classified{0}, reviews{0};
  std::atomic<int64_t> host_ns{0}, render_ns{0}, text_ns{0}, match_ns{0},
      classify_ns{0};
};

// Cost of one NowNs() call, measured.
int64_t ClockReadNs() {
  constexpr int kReads = 200000;
  const int64_t t0 = NowNs();
  int64_t last = t0;
  for (int i = 0; i < kReads; ++i) last = NowNs();
  return (last - t0) / kReads;
}

// One pass over every pair that times ScanHostPages per host (a span per
// host), then replays the host through the public per-page functions
// ScanHostPages calls — GeneratePages, ExtractVisibleTextInto,
// MatchPageInto and the review classifier (in-place tokenization plus
// IsReviewTokens) — reading the clock between stages. Render time is the
// GeneratePages time outside the page callback.
std::string RunBreakdown(const wsd::StudyOptions& options, Breakdown* out) {
  wsd::StudyOptions study_options = options;
  study_options.artifact_dir.clear();
  wsd::Study study(study_options);
  std::optional<wsd::ReviewDetector> detector;
  const int64_t clock_ns = ClockReadNs();
  for (const Pair& pair : PaperPairs()) {
    auto web = study.BuildWeb(pair.domain, pair.attr);
    if (!web.ok()) return web.status().ToString();
    const wsd::AttributeSpec& spec = wsd::GetAttributeSpec(pair.attr);
    if (spec.review_channel && !detector.has_value()) {
      auto built = wsd::ReviewDetector::CreateDefault(options.seed ^ 0xdecafULL);
      if (!built.ok()) return built.status().ToString();
      detector.emplace(std::move(built).value());
    }
    const wsd::ReviewDetector* det = spec.review_channel ? &*detector : nullptr;
    const wsd::EntityMatcher matcher(web->catalog(), pair.attr);
    const Span pair_span("extract.breakdown_pair");
    const SpanContext parent = pair_span.context();
    wsd::ParallelForShards(
        study.pool(), 0, web->num_hosts(),
        [&](size_t, size_t lo, size_t hi) {
          wsd::ScanScratch scratch;
          wsd::HostRecord record;
          uint64_t pages = 0, bytes = 0, text_bytes = 0, mentions = 0,
                   classified = 0, reviews = 0, unused = 0;
          int64_t host_ns = 0, render_ns = 0, text_ns = 0, match_ns = 0,
                  classify_ns = 0;
          for (size_t s = lo; s < hi; ++s) {
            const auto site = static_cast<wsd::SiteId>(s);
            {
              const Span span("extract.scan_host_pages", parent);
              const int64_t h0 = NowNs();
              wsd::ScanHostPages(*web, site, matcher, det, &scratch, &record,
                                 &unused, &unused);
              host_ns += NowNs() - h0;
            }
            const Span replay("corpus.generate_pages", parent);
            int64_t callback_ns = 0;
            uint64_t host_pages = 0;
            const int64_t g0 = NowNs();
            web->GeneratePages(site, &scratch.page, [&](const wsd::Page& page,
                                                        const wsd::PageTruth&) {
              const int64_t p0 = NowNs();
              ++host_pages;
              bytes += page.html.size();
              if (spec.scan_raw_html) {
                mentions += matcher.MatchPageInto(page.html, &scratch.match).size();
                const int64_t p1 = NowNs();
                match_ns += p1 - p0 - clock_ns;
                callback_ns += p1 - p0;
                return;
              }
              scratch.visible_text.clear();
              wsd::html::ExtractVisibleTextInto(page.html, &scratch.visible_text);
              const int64_t p1 = NowNs();
              text_ns += p1 - p0 - clock_ns;
              text_bytes += page.html.size();
              size_t matched =
                  matcher.MatchPageInto(scratch.visible_text, &scratch.match).size();
              int64_t p2 = NowNs();
              match_ns += p2 - p1 - clock_ns;
              if (spec.review_channel && matched > 0) {
                scratch.class_tokens.clear();
                wsd::text::TokenizeForClassificationInPlace(&scratch.visible_text,
                                                            &scratch.class_tokens);
                ++classified;
                if (det->IsReviewTokens(scratch.class_tokens)) {
                  ++reviews;
                } else {
                  matched = 0;
                }
                const int64_t p3 = NowNs();
                classify_ns += p3 - p2 - clock_ns;
                p2 = p3;
              }
              mentions += matched;
              callback_ns += p2 - p0;
            });
            render_ns += NowNs() - g0 - callback_ns -
                         static_cast<int64_t>(host_pages) * clock_ns;
            pages += host_pages;
          }
          out->pages += pages;
          out->bytes += bytes;
          out->text_bytes += text_bytes;
          out->mentions += mentions;
          out->classified += classified;
          out->reviews += reviews;
          out->host_ns += host_ns;
          out->render_ns += render_ns;
          out->text_ns += text_ns;
          out->match_ns += match_ns;
          out->classify_ns += classify_ns;
        });
  }
  return "";
}

// The canary: the recorded corpus, scanned cold, digests compared with
// digests.txt. Returns the set-up's wall time.
double CanarySetup(const RunOptions& run, const std::map<std::string, uint64_t>& digests,
                   bool record, OutputCheck* check) {
  const int64_t t0 = NowNs();
  const std::string dir = run.work_dir + "/canary";
  ResetDir(dir);
  const wsd::StudyOptions options = BatchOptions(kCanarySeed, kCanaryScale, dir);
  const ScanPass pass = RunScanPass(options, 0, false);
  const double seconds = SecondsSince(t0);
  std::vector<uint64_t> expected;
  for (const Pair& pair : PaperPairs()) {
    expected.push_back(Lookup(digests, "scan/" + PairName(pair)).value_or(0));
  }
  if (record) {
    for (size_t i = 0; i < PaperPairs().size() && i < pass.digests.size(); ++i) {
      std::cout << "scan/" << PairName(PaperPairs()[i]) << " "
                << Hex(pass.digests[i]) << "\n";
    }
  }
  CheckPass(pass, expected, "canary", check);
  return seconds;
}

}  // namespace

int RunScanCold(const RunOptions& run) {
  const auto digests = LoadDigests(run.bench_dir + "/digests.txt");
  OutputCheck check;
  Report report;
  report.Note(EnvHeaderJson(run, {{"entities", std::to_string(kEntities)},
                                  {"scale", std::to_string(kBatchScale)},
                                  {"pairs", std::to_string(PaperPairs().size())},
                                  {"workers", std::to_string(kWorkers)},
                                  {"canary_seed", std::to_string(kCanarySeed)},
                                  {"canary_scale", std::to_string(kCanaryScale)}}));

  // Set-up: the canary scan-and-check, five times (it is short); setup_s
  // is the median.
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    setups.push_back(CanarySetup(run, digests, run.record_digests && i == 0, &check));
  }
  const double setup_s = MedianOf(setups);
  ResetPeakRss();
  const wsd::StudyOptions base = BatchOptions(run.seed, kBatchScale, "");
  std::vector<uint64_t> reference;
  PassLog log;
  for (const Pair& pair : PaperPairs()) log.op_names.push_back(PairName(pair));
  std::vector<double> traced_walls, untraced_walls, traced_idle, traced_shard,
      traced_write_bytes, traced_pages;
  uint64_t pass_id = 0;
  auto measure = [&](bool traced) {
    ++pass_id;
    wsd::StudyOptions options = base;
    options.artifact_dir = run.work_dir + "/pass";
    ResetDir(options.artifact_dir);
    Tracer::Get().set_enabled(traced);
    const ScanPass pass = RunScanPass(options, pass_id, traced);
    Tracer::Get().set_enabled(false);
    if (reference.empty() && pass.error.empty()) reference = pass.digests;
    CheckPass(pass, reference, "pass" + std::to_string(pass_id), &check);
    if (traced) {
      traced_walls.push_back(pass.wall_s);
      traced_idle.push_back(pass.pool_idle_frac);
      traced_shard.push_back(pass.shard_max_over_mean);
      traced_write_bytes.push_back(static_cast<double>(pass.write_bytes));
      traced_pages.push_back(static_cast<double>(pass.pages));
      return;
    }
    untraced_walls.push_back(pass.wall_s);
    if (!pass.error.empty()) return;
    log.op_ms.insert(log.op_ms.end(), pass.op_ms.begin(), pass.op_ms.end());
    log.pass_wall_s.push_back(pass.wall_s);
    log.pass_units.push_back(static_cast<double>(pass.pages));
    log.pass_cpu_s.push_back(pass.cpu_s);
  };

  const int64_t start = NowNs();
  if (!run.trace) {
    while (log.pass_wall_s.size() < 3 || SecondsSince(start) < run.seconds) {
      measure(false);
    }
    ReportBatch(log, setup_s, "pages", &report);
    return report.Print(check, true);
  }

  // Traced run: untraced and traced passes alternate for the overhead
  // figure, then one per-page breakdown pass.
  Tracer::Get().Reset();
  while (traced_walls.size() < 2 || SecondsSince(start) < 0.5 * run.seconds) {
    measure(false);
    measure(true);
  }
  const auto span_totals_passes = Tracer::Get().Totals();
  Breakdown breakdown;
  Tracer::Get().set_enabled(true);
  const std::string breakdown_error = RunBreakdown(base, &breakdown);
  Tracer::Get().set_enabled(false);
  if (!breakdown_error.empty()) check.Fail("breakdown", breakdown_error);
  auto seconds_of = [](const std::map<std::string, SpanTotals>& t,
                       const std::string& name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.seconds();
  };
  const double traced_passes = static_cast<double>(traced_walls.size());
  auto secs = [](const std::atomic<int64_t>& ns) {
    return 1e-9 * static_cast<double>(ns.load());
  };
  const double render = secs(breakdown.render_ns);
  const double text = secs(breakdown.text_ns);
  const double match = secs(breakdown.match_ns);
  const double classify = secs(breakdown.classify_ns);
  std::map<std::string, double> layers = {
      {"corpus.render_s", render},
      {"corpus.pages", static_cast<double>(breakdown.pages.load())},
      {"corpus.bytes", static_cast<double>(breakdown.bytes.load())},
      {"html.text_s", text},
      {"html.text_mb_per_s",
       text > 0 ? 1e-6 * static_cast<double>(breakdown.text_bytes.load()) / text : 0},
      {"extract.match_s", match},
      {"extract.mentions_per_page",
       breakdown.pages > 0 ? static_cast<double>(breakdown.mentions.load()) /
                                 static_cast<double>(breakdown.pages.load())
                           : 0},
      {"extract.collapse_s",
       secs(breakdown.host_ns) - render - text - match - classify},
      {"extract.scan_wall_s",
       seconds_of(span_totals_passes, "extract.scan_pipeline_run") / traced_passes},
      {"extract.shard_max_over_mean", MedianOf(traced_shard)},
      {"text.review_classify_s", classify},
      {"text.review_page_ratio",
       breakdown.classified > 0 ? static_cast<double>(breakdown.reviews.load()) /
                                      static_cast<double>(breakdown.classified.load())
                                : 0},
      {"util.pool_idle_frac", MedianOf(traced_idle)},
      {"store.write_s", seconds_of(span_totals_passes, "store.write") / traced_passes},
      {"store.write_bytes", MedianOf(traced_write_bytes)},
      {"trace.overhead_frac", MedianOf(traced_walls) / MedianOf(untraced_walls) - 1},
      {"trace.spans", static_cast<double>(Tracer::Get().stored())},
  };
  report.Note("breakdown: " + std::to_string(breakdown.pages.load()) +
              " pages; per-page stage times are thread-seconds over one pass "
              "of scans; pass metrics are per traced pass (" +
              std::to_string(traced_walls.size()) + " traced, " +
              std::to_string(untraced_walls.size()) + " untraced)");
  ReportLayers(layers, &report);
  if (!Tracer::Get().WriteChromeTrace(run.trace_out)) {
    check.Fail("trace", "could not write " + run.trace_out);
  }
  report.Note("chrome trace: " + run.trace_out + " (" +
              std::to_string(Tracer::Get().stored()) + " spans, " +
              std::to_string(Tracer::Get().dropped()) + " dropped)");
  return report.Print(check, true);
}

}  // namespace perfbench
