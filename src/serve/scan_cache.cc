#include "serve/scan_cache.h"

#include <utility>

#include "util/logging.h"
#include "util/metrics.h"

namespace wsd {

namespace {

struct CacheMetrics {
  Counter& hits;
  Counter& misses;
  Counter& evictions;
  Counter& oversized_admits;
  Gauge& bytes;
  Gauge& entries;
  Counter& memo_hits;
  Counter& memo_misses;

  static CacheMetrics& Get() {
    static CacheMetrics* m = [] {
      auto& reg = MetricsRegistry::Global();
      return new CacheMetrics{
          reg.GetCounter("wsd.serve.scan_cache.hits"),
          reg.GetCounter("wsd.serve.scan_cache.misses"),
          reg.GetCounter("wsd.serve.scan_cache.evictions"),
          reg.GetCounter("wsd.serve.scan_cache.oversized_admits"),
          reg.GetGauge("wsd.serve.scan_cache.bytes"),
          reg.GetGauge("wsd.serve.scan_cache.entries"),
          reg.GetCounter("wsd.serve.analysis_memo.hits"),
          reg.GetCounter("wsd.serve.analysis_memo.misses"),
      };
    }();
    return *m;
  }
};

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

}  // namespace

void CountAnalysisMemo(bool computed) {
  CacheMetrics& metrics = CacheMetrics::Get();
  (computed ? metrics.memo_misses : metrics.memo_hits).Increment();
}

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
    : base_(base), max_bytes_(max_bytes) {}

void ScanHandleCache::WaitWhileInflight(const Key& key) {
  // Bare waits in a loop: notify_all wakes every waiter, and each one
  // re-evaluates the cache state from scratch under mu_.
  while (inflight_.count(key) != 0) inflight_cv_.Wait(mu_);
}

StatusOr<std::shared_ptr<const ScanResult>> ScanHandleCache::Get(
    const Key& key) {
  StatusOr<Entry> entry = Resolve(key);
  if (!entry.ok()) return entry.status();
  return entry->result;
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
  StatusOr<Entry> entry = Resolve(key);
  if (!entry.ok()) return entry.status();
  StudyOptions options = base_;
  options.scale = key.scale;
  const uint32_t entities = options.ScaledEntities();
  const ScanResult& scan = *entry->result;
  const ScanAnalyses* analyses = entry->analyses.get();
  return ((*entry->analyses).*slot).Get([&]() -> StatusOr<T> {
    StatusOr<T> result = compute(scan.table, entities);
    if (result.ok()) AddAnalysisBytes(key, analyses, ApproxBytes(*result));
    return result;
  });
}

void ScanHandleCache::AddAnalysisBytes(const Key& key,
                                       const ScanAnalyses* analyses,
                                       size_t bytes) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.analyses.get() != analyses) return;
  it->second.bytes += bytes;
  total_bytes_ += bytes;
  EvictLocked();
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.bytes.Set(static_cast<double>(total_bytes_));
  metrics.entries.Set(static_cast<double>(entries_.size()));
}

StatusOr<ScanHandleCache::Entry> ScanHandleCache::Resolve(const Key& key) {
  CacheMetrics& metrics = CacheMetrics::Get();
  {
    MutexLock lock(mu_);
    for (;;) {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        it->second.last_used = ++tick_;
        ++hits_;
        metrics.hits.Increment();
        return it->second;
      }
      // Miss. If another thread is already scanning this key, wait it
      // out, then RE-CHECK eviction from the top: between the scanner's
      // notify and this thread reacquiring mu_, the freshly admitted
      // entry may have been evicted by another key becoming MRU (with a
      // 1-byte budget this is the common case, pinned by
      // ScanHandleCacheTest.WaiterRescansAfterInflightEntryEvicted).
      // The scan may also simply have failed. Either way the loop falls
      // through here with inflight_ empty and this thread takes over.
      if (inflight_.count(key) == 0) break;
      WaitWhileInflight(key);
    }
    inflight_.insert(key);
    ++misses_;
  }
  metrics.misses.Increment();

  // Scan outside the lock. An ephemeral Study resolves through its own
  // memo and the on-disk ArtifactStore exactly like a CLI run would; we
  // then keep only the shared result so the Study's memo does not pin
  // memory.
  StudyOptions options = base_;
  options.seed = key.seed;
  options.scale = key.scale;
  StatusOr<Entry> outcome = [&]() -> StatusOr<Entry> {
    Study study(options);
    auto handle = study.Scan(key.domain, key.attr);
    if (!handle.ok()) return handle.status();
    Entry entry;
    entry.result = handle->shared_result();
    entry.analyses = std::make_shared<ScanAnalyses>();
    entry.bytes = ApproxScanResultBytes(*entry.result) + sizeof(ScanAnalyses);
    return entry;
  }();

  {
    MutexLock lock(mu_);
    inflight_.erase(key);
    if (outcome.ok()) {
      Entry& entry = *outcome;
      entry.last_used = ++tick_;
      total_bytes_ += entry.bytes;
      if (entry.bytes > max_bytes_) {
        ++oversized_admits_;
        metrics.oversized_admits.Increment();
        WSD_LOG(kWarning)
            << "scan_cache: admitting oversized entry for "
            << DomainName(key.domain) << "/" << AttributeName(key.attr)
            << " (" << entry.bytes << " bytes > budget " << max_bytes_
            << "); it will be evicted as soon as another key is used";
      }
      entries_[key] = entry;
      EvictLocked();
      metrics.bytes.Set(static_cast<double>(total_bytes_));
      metrics.entries.Set(static_cast<double>(entries_.size()));
      if (post_admit_hook_) post_admit_hook_();
    }
    inflight_cv_.NotifyAll();
  }
  return outcome;
}

void ScanHandleCache::EvictLocked() {
  while (total_bytes_ > max_bytes_ && entries_.size() > 1) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    WSD_LOG(kInfo) << "scan_cache: evicting " << DomainName(victim->first.domain)
                  << "/" << AttributeName(victim->first.attr) << " ("
                  << victim->second.bytes << " bytes)";
    total_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evictions_;
    CacheMetrics::Get().evictions.Increment();
  }
}

void ScanHandleCache::SetPostAdmitHookForTest(std::function<void()> hook) {
  MutexLock lock(mu_);
  post_admit_hook_ = std::move(hook);
}

size_t ScanHandleCache::InflightCountForTest() const {
  MutexLock lock(mu_);
  return inflight_.size();
}

void ScanHandleCache::EvictAllForTest() {
  while (!entries_.empty()) {
    total_bytes_ -= entries_.begin()->second.bytes;
    entries_.erase(entries_.begin());
    ++evictions_;
    CacheMetrics::Get().evictions.Increment();
  }
  CacheMetrics::Get().bytes.Set(static_cast<double>(total_bytes_));
  CacheMetrics::Get().entries.Set(0.0);
}

ScanHandleCache::Stats ScanHandleCache::GetStats() const {
  MutexLock lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.oversized_admits = oversized_admits_;
  s.entries = entries_.size();
  s.bytes = total_bytes_;
  return s;
}

}  // namespace wsd
