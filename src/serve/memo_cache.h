/// \file memo_cache.h
/// Compute-once memoization for `wsdd`. Every analysis the server answers
/// is deterministic in its parameters and the server's base options, so a
/// memoized result never goes stale: the caches need no invalidation, only
/// a byte budget. ComputeOnce runs one computation and shares its result
/// with every caller; MemoCache is a byte-budgeted LRU map of ComputeOnce
/// slots. The scan cache, the response cache and the /demand memo are its
/// instances.

#ifndef WSD_SERVE_MEMO_CACHE_H_
#define WSD_SERVE_MEMO_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/metrics.h"
#include "util/mutex.h"
#include "util/statusor.h"

namespace wsd {

/// A result computed once, on its first request. The first caller of Get
/// runs `compute`; callers that arrive while it runs wait for it and share
/// its result. A failure goes to the caller that computed it and is not
/// kept, so a waiter then computes again. Thread-safe.
template <typename T>
class ComputeOnce {
 public:
  ComputeOnce() = default;

  ComputeOnce(const ComputeOnce&) = delete;
  ComputeOnce& operator=(const ComputeOnce&) = delete;

  /// The result, computed by `compute()` (a StatusOr<T>) when no caller
  /// has computed it yet. `*computed` says whether this call ran it.
  template <typename Compute>
  [[nodiscard]] StatusOr<std::shared_ptr<const T>> Get(const Compute& compute,
                                                       bool* computed) {
    {
      MutexLock lock(mu_);
      while (value_ == nullptr && computing_) done_.Wait(mu_);
      *computed = value_ == nullptr;
      if (value_ != nullptr) return value_;
      computing_ = true;
    }
    StatusOr<T> result = compute();
    MutexLock lock(mu_);
    computing_ = false;
    done_.NotifyAll();
    if (!result.ok()) return result.status();
    value_ = std::make_shared<const T>(std::move(result).value());
    return value_;
  }

 private:
  Mutex mu_;
  CondVar done_;
  bool computing_ GUARDED_BY(mu_) = false;
  std::shared_ptr<const T> value_ GUARDED_BY(mu_);
};

/// Point-in-time counters of one MemoCache.
struct MemoCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t oversized_admits = 0;
  size_t entries = 0;  // computing ones included
  size_t bytes = 0;
};

/// A map from Key to a value computed once per key, bounded by bytes.
///
/// - The first Get of a key is a miss and computes; a Get that finds the
///   key, computed or still computing, is a hit. A hit on a computing key
///   waits for the result and shares it, even if the entry is evicted
///   before the waiter wakes.
/// - A failed computation leaves no entry.
/// - A computed entry costs `approx_bytes(key, value)` plus whatever
///   Charge adds. A computing entry costs nothing and is never evicted.
/// - Over budget, least recently used results are evicted, but never the
///   most recently used one: a zero budget still keeps one result, and an
///   entry larger than the whole budget is admitted and counted on
///   oversized_admits.
///
/// Counters and gauges go to `<metric_prefix>.{hits,misses,evictions,
/// oversized_admits,bytes,entries}`. Thread-safe.
template <typename Key, typename T>
class MemoCache {
 public:
  using Stats = MemoCacheStats;
  using BytesFn = size_t (*)(const Key&, const T&);

  MemoCache(std::string_view metric_prefix, size_t max_bytes,
            BytesFn approx_bytes)
      : approx_bytes_(approx_bytes),
        metrics_(MetricsFor(std::string(metric_prefix))),
        max_bytes_(max_bytes) {}

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// The value for `key`, computed by `compute()` (a StatusOr<T>) on a
  /// miss. A failure is returned to the caller that computed it.
  template <typename Compute>
  [[nodiscard]] StatusOr<std::shared_ptr<const T>> Get(
      const Key& key, const Compute& compute) {
    std::shared_ptr<ComputeOnce<T>> slot;
    {
      MutexLock lock(mu_);
      auto [it, inserted] = entries_.try_emplace(key);
      Entry& entry = it->second;
      if (inserted) {
        ++misses_;
        metrics_.misses.Increment();
        entry.slot = std::make_shared<ComputeOnce<T>>();
      } else {
        ++hits_;
        metrics_.hits.Increment();
        if (entry.value != nullptr) {
          lru_.splice(lru_.begin(), lru_, entry.lru);
          return entry.value;
        }
      }
      slot = entry.slot;
    }
    bool computed = false;
    StatusOr<std::shared_ptr<const T>> value = slot->Get(compute, &computed);
    if (computed) Settle(key, slot.get(), value);
    return value;
  }

  /// Adds `bytes` to `key`'s entry while it still holds `value` (it may
  /// have been evicted since), then evicts over budget.
  void Charge(const Key& key, const T* value, size_t bytes) {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.value.get() != value) return;
    it->second.bytes += bytes;
    total_bytes_ += bytes;
    EvictLocked();
  }

  Stats GetStats() const {
    MutexLock lock(mu_);
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.oversized_admits = oversized_admits_;
    stats.entries = entries_.size();
    stats.bytes = total_bytes_;
    return stats;
  }

  size_t max_bytes() const {
    MutexLock lock(mu_);
    return max_bytes_;
  }

  void set_max_bytes(size_t max_bytes) {
    MutexLock lock(mu_);
    max_bytes_ = max_bytes;
    EvictLocked();
  }

 private:
  struct Metrics {
    Counter& hits;
    Counter& misses;
    Counter& evictions;
    Counter& oversized_admits;
    Gauge& bytes;
    Gauge& entries;
  };

  struct Entry {
    std::shared_ptr<ComputeOnce<T>> slot;  // null once computed
    std::shared_ptr<const T> value;        // null while computing
    size_t bytes = 0;
    typename std::list<const Key*>::iterator lru;  // set once computed
  };

  static Metrics MetricsFor(const std::string& prefix) {
    auto& reg = MetricsRegistry::Global();
    return Metrics{reg.GetCounter(prefix + ".hits"),
                   reg.GetCounter(prefix + ".misses"),
                   reg.GetCounter(prefix + ".evictions"),
                   reg.GetCounter(prefix + ".oversized_admits"),
                   reg.GetGauge(prefix + ".bytes"),
                   reg.GetGauge(prefix + ".entries")};
  }

  /// Records the outcome of `slot`'s computation in `key`'s entry: admits
  /// a value, drops a failure. An entry that no longer holds `slot` (an
  /// earlier failure dropped it) is left alone.
  void Settle(const Key& key, const ComputeOnce<T>* slot,
              const StatusOr<std::shared_ptr<const T>>& value) {
    const size_t bytes = value.ok() ? approx_bytes_(key, **value) : 0;
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.slot.get() != slot) return;
    if (value.ok()) {
      Entry& entry = it->second;
      entry.slot = nullptr;
      entry.value = *value;
      entry.bytes = bytes;
      lru_.push_front(&it->first);
      entry.lru = lru_.begin();
      total_bytes_ += entry.bytes;
      if (entry.bytes > max_bytes_) {
        ++oversized_admits_;
        metrics_.oversized_admits.Increment();
      }
    } else {
      entries_.erase(it);
    }
    EvictLocked();
  }

  /// Evicts least recently used results until the budget holds or one
  /// is left, then publishes the gauges.
  void EvictLocked() REQUIRES(mu_) {
    while (total_bytes_ > max_bytes_ && lru_.size() > 1) {
      auto victim = entries_.find(*lru_.back());
      lru_.pop_back();
      total_bytes_ -= victim->second.bytes;
      entries_.erase(victim);
      ++evictions_;
      metrics_.evictions.Increment();
    }
    metrics_.bytes.Set(static_cast<double>(total_bytes_));
    metrics_.entries.Set(static_cast<double>(entries_.size()));
  }

  const BytesFn approx_bytes_;
  const Metrics metrics_;

  mutable Mutex mu_;
  size_t max_bytes_ GUARDED_BY(mu_);
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  /// Computed entries' keys, most recently used first.
  std::list<const Key*> lru_ GUARDED_BY(mu_);
  size_t total_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t oversized_admits_ GUARDED_BY(mu_) = 0;
};

}  // namespace wsd

#endif  // WSD_SERVE_MEMO_CACHE_H_
