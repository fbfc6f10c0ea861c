#ifndef WSD_STORE_ARTIFACT_STORE_H_
#define WSD_STORE_ARTIFACT_STORE_H_

#include <cstdint>
#include <string>

#include "entity/domains.h"
#include "store/snapshot.h"
#include "util/status.h"
#include "util/statusor.h"

namespace wsd {

/// Identity of one scan artifact. Two scans produce bit-identical results
/// iff every field here matches (scans are deterministic in these inputs),
/// so the key doubles as the content address: anything that changes the
/// scan output — including the snapshot layout itself — changes the key.
struct ArtifactKey {
  Domain domain = Domain::kRestaurants;
  Attribute attr = Attribute::kPhone;
  uint32_t num_entities = 0;
  uint64_t seed = 0;
  double scale = 1.0;
  bool legacy_scan = false;

  /// Canonical textual form of the key, including the snapshot schema
  /// version. `scale` is rendered as CanonicalScaleBits so every double
  /// spelling of the same numeric value (-0.0 vs 0.0, NaN payloads) maps
  /// to one key — distinct *values* still never alias.
  std::string CanonicalString() const;

  /// Cache filename: "<domain>-<attr>-<hash16>.wsdsnap", where hash16 is
  /// the XXH64 of CanonicalString() in hex. The readable prefix is for
  /// humans poking at the cache dir; only the hash carries identity.
  std::string Filename() const;

  /// The provenance written into this key's snapshots (monolithic: shard
  /// 0 of 1).
  SnapshotMeta Meta() const;

  /// Reconstructs the key a snapshot's provenance describes — how
  /// `wsdctl merge --artifacts` installs a merged snapshot under the key
  /// a future Study will look up.
  static ArtifactKey FromMeta(const SnapshotMeta& meta);
};

/// Content-addressed cache of scan snapshots in one directory. All
/// methods are const and the store holds no state beyond the directory
/// path, so a Study can share one instance across analyses. Failure
/// semantics (the scan-once contract): Load never fails the caller's
/// computation — any miss, unreadable file or corrupt snapshot comes back
/// as a non-OK Status the caller answers with a live scan. Store failures
/// are likewise advisory: the freshly scanned result is still in hand.
///
/// Snapshots are written in the aligned (v2/v3) format with provenance
/// and loaded through the zero-copy mmap path (wsd.store.mmap_loads).
/// Every loaded snapshot's provenance must match the requested key — a
/// file whose content disagrees with its name (copied, renamed, forged)
/// is a verify failure, not a hit, and so is a file in a format this
/// build does not read (v1 included).
///
/// Counters (docs/METRICS.md): wsd.artifact.hits / misses /
/// verify_failures / read_bytes / write_bytes.
class ArtifactStore {
 public:
  /// `dir` is created on first Store(); Load() from a missing directory
  /// is simply a miss.
  explicit ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Full path of the snapshot file for `key`.
  std::string PathFor(const ArtifactKey& key) const;

  /// Loads and validates the snapshot for `key`. NotFound when no
  /// artifact exists (a miss); Corruption/IOError when one exists but
  /// fails to read or verify (counted in wsd.artifact.verify_failures
  /// and logged — the artifact is stale or damaged and the caller should
  /// rescan).
  [[nodiscard]] StatusOr<ScanResult> Load(const ArtifactKey& key) const;

  /// Writes the snapshot for `key` atomically (write-via-rename), creating
  /// the store directory if needed.
  [[nodiscard]] Status Store(const ArtifactKey& key,
                             const ScanResult& result) const;

 private:
  std::string dir_;
};

}  // namespace wsd

#endif  // WSD_STORE_ARTIFACT_STORE_H_
