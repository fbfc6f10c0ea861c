#include "store/merge.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace wsd {

namespace {

std::string ShardLabel(const SnapshotMeta& meta) {
  return "shard " + std::to_string(meta.shard_index + 1) + "/" +
         std::to_string(meta.shard_count);
}

// Scan-determining provenance fields only; the shard slot is validated
// separately (it is supposed to differ across inputs).
bool SameScanProvenance(const SnapshotMeta& a, const SnapshotMeta& b) {
  return a.domain == b.domain && a.attr == b.attr &&
         a.num_entities == b.num_entities && a.seed == b.seed &&
         a.scale_bits == b.scale_bits && a.legacy_scan == b.legacy_scan;
}

}  // namespace

Status CanonicalizeScanResult(ScanResult* result) {
  std::vector<HostRecord>& hosts = result->table.mutable_hosts();
  std::sort(hosts.begin(), hosts.end(),
            [](const HostRecord& a, const HostRecord& b) {
              return a.host < b.host;
            });
  for (size_t i = 1; i < hosts.size(); ++i) {
    if (hosts[i].host == hosts[i - 1].host) {
      return Status::InvalidArgument("duplicate host '" + hosts[i].host +
                                     "'; canonical host order requires "
                                     "unique names");
    }
  }
  result->stats.wall_seconds = 0.0;
  return Status::OK();
}

StatusOr<ParsedSnapshot> MergeSnapshots(std::vector<ParsedSnapshot> shards) {
  static Counter& merges =
      MetricsRegistry::Global().GetCounter("wsd.store.merges");
  static Counter& merge_inputs =
      MetricsRegistry::Global().GetCounter("wsd.store.merge_inputs");
  static Counter& merge_hosts =
      MetricsRegistry::Global().GetCounter("wsd.store.merge_hosts");

  if (shards.empty()) {
    return Status::InvalidArgument("merge requires at least one snapshot");
  }
  const SnapshotMeta& first = shards.front().meta;
  const uint32_t n = static_cast<uint32_t>(shards.size());
  std::vector<bool> seen_slot(n, false);
  for (const ParsedSnapshot& shard : shards) {
    const SnapshotMeta& meta = shard.meta;
    if (!SameScanProvenance(meta, first)) {
      return Status::InvalidArgument(
          "merge provenance mismatch: " + ShardLabel(meta) +
          " was scanned with different (domain, attr, entities, seed, "
          "scale, legacy) inputs than " + ShardLabel(first));
    }
    if (meta.shard_count != n) {
      return Status::InvalidArgument(
          "merge expects all " + std::to_string(meta.shard_count) +
          " shards of the scan; got " + std::to_string(n) + " inputs");
    }
    if (meta.shard_index >= n) {
      return Status::InvalidArgument("shard slot out of range: " +
                                     ShardLabel(meta));
    }
    if (seen_slot[meta.shard_index]) {
      return Status::InvalidArgument("duplicate input for " +
                                     ShardLabel(meta));
    }
    seen_slot[meta.shard_index] = true;
  }
  // All n slots seen exactly once (n inputs, no duplicates) — nothing
  // missing, nothing foreign.

  ParsedSnapshot merged;
  merged.meta = first;
  merged.meta.shard_index = 0;
  merged.meta.shard_count = 1;

  std::vector<HostRecord> hosts;
  size_t total_hosts = 0;
  for (const ParsedSnapshot& shard : shards) {
    total_hosts += shard.result.table.num_hosts();
  }
  hosts.reserve(total_hosts);
  for (ParsedSnapshot& shard : shards) {
    const ShardSpec slot{shard.meta.shard_index, shard.meta.shard_count};
    for (HostRecord& h : shard.result.table.mutable_hosts()) {
      if (!slot.Owns(h.host)) {
        return Status::InvalidArgument(
            "host '" + h.host + "' does not belong to " +
            ShardLabel(shard.meta) + "; refusing to merge");
      }
      hosts.push_back(std::move(h));
    }
    merged.result.stats.hosts_scanned += shard.result.stats.hosts_scanned;
    merged.result.stats.pages_scanned += shard.result.stats.pages_scanned;
    merged.result.stats.bytes_scanned += shard.result.stats.bytes_scanned;
    merged.result.stats.entity_mentions +=
        shard.result.stats.entity_mentions;
    merged.result.stats.review_pages += shard.result.stats.review_pages;
    merged.result.stats.skipped_urls += shard.result.stats.skipped_urls;
  }
  merged.result.table = HostEntityTable(std::move(hosts));
  // Sorts by name and rejects cross-shard duplicates (a host present in
  // two shards would collide here even though each passed its ownership
  // check — possible only with forged metas, but still fail closed).
  WSD_RETURN_IF_ERROR(CanonicalizeScanResult(&merged.result));

  merges.Increment();
  merge_inputs.Increment(n);
  merge_hosts.Increment(merged.result.table.num_hosts());
  return merged;
}

}  // namespace wsd
