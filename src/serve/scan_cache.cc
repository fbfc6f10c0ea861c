#include "serve/scan_cache.h"

#include "util/metrics.h"

namespace wsd {

namespace {

// Approximate resident bytes of each memoized analysis, on the same terms
// as ApproxScanResultBytes.
size_t ApproxBytes(const CoverageCurve& curve) {
  size_t bytes = sizeof(curve) + curve.t_values.capacity() * sizeof(uint32_t);
  for (const auto& series : curve.k_coverage) {
    bytes += sizeof(series) + series.capacity() * sizeof(double);
  }
  return bytes;
}

size_t ApproxBytes(const SetCoverCurve& curve) {
  return sizeof(curve) +
         (curve.t_values.capacity() + curve.greedy_order.capacity()) *
             sizeof(uint32_t) +
         (curve.greedy_coverage.capacity() + curve.size_coverage.capacity()) *
             sizeof(double);
}

size_t ApproxBytes(const GraphMetricsRow& row) { return sizeof(row); }

// Counts one memoized-analysis lookup: on wsd.serve.analysis_memo.misses
// when it ran the computation, on .hits otherwise.
void CountAnalysisMemo(bool computed) {
  static Counter& hits =
      MetricsRegistry::Global().GetCounter("wsd.serve.analysis_memo.hits");
  static Counter& misses =
      MetricsRegistry::Global().GetCounter("wsd.serve.analysis_memo.misses");
  (computed ? misses : hits).Increment();
}

}  // namespace

size_t ApproxScanResultBytes(const ScanResult& result) {
  size_t bytes = sizeof(ScanResult);
  for (const HostRecord& host : result.table.hosts()) {
    bytes += sizeof(HostRecord);
    bytes += host.host.capacity();
    bytes += host.entities.capacity() * sizeof(EntityPages);
  }
  return bytes;
}

ScanHandleCache::ScanHandleCache(const StudyOptions& base, size_t max_bytes)
    : base_(base), memo_("wsd.serve.scan_cache", max_bytes, &EntryBytes) {}

size_t ScanHandleCache::EntryBytes(const Key& /*key*/, const Entry& entry) {
  return ApproxScanResultBytes(*entry.result) + sizeof(ScanAnalyses);
}

StatusOr<std::shared_ptr<const ScanResult>> ScanHandleCache::Get(
    const Key& key) {
  StatusOr<std::shared_ptr<const Entry>> entry = Resolve(key);
  if (!entry.ok()) return entry.status();
  return (*entry)->result;
}

StatusOr<std::shared_ptr<const CoverageCurve>> ScanHandleCache::KCoverage(
    const Key& key) {
  return Analyze(key, &ScanAnalyses::k_coverage,
                 [](const HostEntityTable& table, uint32_t entities) {
                   return ComputeKCoverage(
                       table, entities, kMaxK,
                       DefaultCoverageTValues(
                           static_cast<uint32_t>(table.num_hosts())));
                 });
}

StatusOr<std::shared_ptr<const SetCoverCurve>> ScanHandleCache::SetCover(
    const Key& key) {
  return Analyze(key, &ScanAnalyses::set_cover,
                 [](const HostEntityTable& table, uint32_t entities) {
                   return GreedySetCover(
                       table, entities,
                       DefaultCoverageTValues(
                           static_cast<uint32_t>(table.num_hosts())));
                 });
}

StatusOr<std::shared_ptr<const GraphMetricsRow>> ScanHandleCache::GraphMetrics(
    const Key& key) {
  // Serial on purpose: requests are already parallel across connections,
  // and sharing one pool across requests would serialize them anyway.
  return Analyze(key, &ScanAnalyses::graph,
                 [&key](const HostEntityTable& table, uint32_t entities) {
                   return ComputeGraphMetrics(key.domain, key.attr, table,
                                              entities, nullptr);
                 });
}

template <typename T, typename Compute>
StatusOr<std::shared_ptr<const T>> ScanHandleCache::Analyze(
    const Key& key, ComputeOnce<T> ScanAnalyses::*slot,
    const Compute& compute) {
  StatusOr<std::shared_ptr<const Entry>> entry = Resolve(key);
  if (!entry.ok()) return entry.status();
  StudyOptions options = base_;
  options.scale = key.scale;
  const uint32_t entities = options.ScaledEntities();
  const Entry& resolved = **entry;
  bool computed = false;
  StatusOr<std::shared_ptr<const T>> result = ((*resolved.analyses).*slot).Get(
      [&] { return compute(resolved.result->table, entities); }, &computed);
  CountAnalysisMemo(computed);
  if (computed && result.ok()) {
    memo_.Charge(key, &resolved, ApproxBytes(**result));
  }
  return result;
}

StatusOr<std::shared_ptr<const ScanHandleCache::Entry>>
ScanHandleCache::Resolve(const Key& key) {
  // Scan outside the cache's lock. An ephemeral Study resolves through
  // its own memo and the on-disk ArtifactStore exactly like a CLI run
  // would; we then keep only the shared result so the Study's memo does
  // not pin memory.
  return memo_.Get(key, [&]() -> StatusOr<Entry> {
    StudyOptions options = base_;
    options.seed = key.seed;
    options.scale = key.scale;
    Study study(options);
    auto handle = study.Scan(key.domain, key.attr);
    if (!handle.ok()) return handle.status();
    return Entry{handle->shared_result(), std::make_unique<ScanAnalyses>()};
  });
}

}  // namespace wsd
