#include <algorithm>

#include "store/merge.h"
#include "store/snapshot.h"
#include "workloads.h"

namespace perfbench {

void ReportBatch(const PassLog& log, double setup_s,
                 const std::string& unit_name, Report* report) {
  // Every pass runs the same operations on the same inputs. Interference
  // from other tenants of the machine only ever adds time and comes in
  // bursts, so an operation's cost is its fastest pass: one clean pass is
  // enough, where a median needs most passes to be clean.
  const size_t n = log.op_names.size();
  const size_t passes = log.pass_wall_s.size();
  std::vector<double> best_ms(n);
  std::string per_op = "per-operation ms, fastest of " + std::to_string(passes) +
                       " passes:";
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> samples;
    for (size_t j = i; j < log.op_ms.size(); j += n) samples.push_back(log.op_ms[j]);
    best_ms[i] = samples.empty() ? 0 : *std::min_element(samples.begin(), samples.end());
    per_op += " " + log.op_names[i] + "=" + std::to_string(best_ms[i]);
  }
  double best_pass_ms = 0, wall_s = 0;
  for (double ms : best_ms) best_pass_ms += ms;
  double cpu_us = 0;
  for (size_t p = 0; p < passes; ++p) {
    const double us = 1e6 * log.pass_cpu_s[p] / log.pass_units[p];
    cpu_us = p == 0 ? us : std::min(cpu_us, us);
    wall_s += log.pass_wall_s[p];
  }
  const double units = MedianOf(log.pass_units);
  report->Metric("setup_s", setup_s, "s");
  report->Metric("cpu_us_per_op", cpu_us, "us");
  report->Metric("peak_rss_mb", SelfPeakRssMb(), "MB");
  report->Note("passes " + std::to_string(passes) + ", operations " +
               std::to_string(log.op_ms.size()) + " (" + std::to_string(n) +
               " per pass), " + unit_name + " per pass " +
               std::to_string(static_cast<uint64_t>(units)) + ", measured wall " +
               std::to_string(wall_s) + " s");
  report->Note("cpu_us_per_op is the fastest pass's; peak_rss_mb is the "
               "high-water mark of the measured passes");
  report->Note("throughput (not gated): " +
               std::to_string(units / (1e-3 * best_pass_ms)) + " " + unit_name +
               " per s, work per pass over the sum of the " + std::to_string(n) +
               " operations' fastest times");
  report->Note("operation latency (not gated): median " +
               std::to_string(MedianOf(best_ms)) + " ms, slowest " +
               std::to_string(*std::max_element(best_ms.begin(), best_ms.end())) +
               " ms, over the " + std::to_string(n) + " fastest times");
  report->Note(per_op);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"corpus.render_s", "s"},
      {"corpus.pages", "count"},
      {"corpus.bytes", "bytes"},
      {"html.text_s", "s"},
      {"html.text_mb_per_s", "MB/s"},
      {"extract.match_s", "s"},
      {"extract.mentions_per_page", "ratio"},
      {"extract.collapse_s", "s"},
      {"extract.scan_wall_s", "s"},
      {"extract.shard_max_over_mean", "ratio"},
      {"text.review_classify_s", "s"},
      {"text.review_page_ratio", "ratio"},
      {"util.pool_idle_frac", "ratio"},
      {"store.write_s", "s"},
      {"store.write_bytes", "bytes"},
      {"store.load_s", "s"},
      {"store.read_bytes", "bytes"},
      {"store.mmap_loads", "count"},
      {"core.kcoverage_s", "s"},
      {"core.setcover_s", "s"},
      {"core.page_coverage_s", "s"},
      {"core.robustness_s", "s"},
      {"graph.build_s", "s"},
      {"graph.components_s", "s"},
      {"graph.diameter_s", "s"},
      {"graph.bfs_runs", "count"},
      {"traffic.generate_s", "s"},
      {"traffic.estimate_s", "s"},
      {"traffic.events", "count"},
      {"serve.parse_us", "us"},
      {"serve.handle_hit_us", "us"},
      {"serve.handle_miss_ms", "ms"},
      {"serve.scan_miss_ms", "ms"},
      {"serve.transport_us", "us"},
      {"serve.response_cache.hit_ratio", "ratio"},
      {"serve.scan_cache.hit_ratio", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return names;
}

void ReportLayers(const std::map<std::string, double>& values,
                  Report* report) {
  for (const auto& [name, unit] : LayerMetricUnits()) {
    const auto it = values.find(name);
    report->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    const auto& known = LayerMetricUnits();
    if (std::none_of(known.begin(), known.end(),
                     [&](const auto& entry) { return entry.first == name; })) {
      report->Note("unlisted layer metric " + name);
    }
  }
}

wsd::StudyOptions BatchOptions(uint64_t seed, double scale,
                               const std::string& artifact_dir) {
  wsd::StudyOptions options;
  options.num_entities = kEntities;
  options.seed = seed;
  options.scale = scale;
  options.threads = kWorkers;
  options.artifact_dir = artifact_dir;
  return options;
}

wsd::ArtifactKey KeyFor(const wsd::StudyOptions& options, const Pair& pair) {
  wsd::ArtifactKey key;
  key.domain = pair.domain;
  key.attr = pair.attr;
  key.num_entities = options.num_entities;
  key.seed = options.seed;
  key.scale = options.scale;
  key.legacy_scan = options.legacy_scan;
  return key;
}

uint64_t SnapshotDigest(const wsd::ScanResult& result,
                        const wsd::ArtifactKey& key) {
  wsd::ScanResult canonical = result;
  if (!wsd::CanonicalizeScanResult(&canonical).ok()) return 0;
  auto bytes = wsd::SerializeSnapshotAligned(canonical, key.Meta());
  return bytes.ok() ? Digest(*bytes) : 0;
}

double SecondsSince(int64_t start_ns) {
  return 1e-9 * static_cast<double>(NowNs() - start_ns);
}

}  // namespace perfbench
