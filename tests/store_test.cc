// Tests for the scan-artifact store: snapshot round trips (including
// TSV-loaded, empty and zero-page tables), fail-closed parsing of
// malformed, foreign and retired-v1 bytes, ArtifactStore
// hit/miss/fallback semantics, and the scan-once acceptance check (one
// live scan per (domain, attr) however many analyses consume it).

#include "store/artifact_store.h"
#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace wsd {
namespace {

namespace fs = std::filesystem;

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

// A fresh directory under the test tmp root, wiped on construction.
std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("wsd_store_test_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

ScanResult MakeResult() {
  std::vector<HostRecord> hosts;
  {
    HostRecord rec;
    rec.host = "alpha.example.com";
    rec.entities = {{0, 3}, {5, 1}, {17, 2}};
    rec.pages_scanned = 12;
    rec.bytes_scanned = 34567;
    hosts.push_back(std::move(rec));
  }
  {
    // A host the scan visited but where nothing matched — and with zero
    // pages (possible for TSV-loaded tables, which carry no page totals).
    HostRecord rec;
    rec.host = "beta.example.net";
    hosts.push_back(std::move(rec));
  }
  {
    HostRecord rec;
    rec.host = "gamma.example.org";
    // Adjacent duplicate ids are legal for TSV-loaded tables (ReadTsv
    // sorts but does not deduplicate), so the format must round-trip
    // them (delta 0).
    rec.entities = {{2, 1}, {2, 4}, {1000000, 7}};
    rec.pages_scanned = 1;
    hosts.push_back(std::move(rec));
  }
  ScanResult result;
  result.table = HostEntityTable(std::move(hosts));
  result.stats.hosts_scanned = 3;
  result.stats.pages_scanned = 13;
  result.stats.bytes_scanned = 34567;
  result.stats.entity_mentions = 18;
  result.stats.review_pages = 2;
  result.stats.skipped_urls = 1;
  result.stats.wall_seconds = 0.25;
  return result;
}

void ExpectSameResult(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.stats.hosts_scanned, b.stats.hosts_scanned);
  EXPECT_EQ(a.stats.pages_scanned, b.stats.pages_scanned);
  EXPECT_EQ(a.stats.bytes_scanned, b.stats.bytes_scanned);
  EXPECT_EQ(a.stats.entity_mentions, b.stats.entity_mentions);
  EXPECT_EQ(a.stats.review_pages, b.stats.review_pages);
  EXPECT_EQ(a.stats.skipped_urls, b.stats.skipped_urls);
  EXPECT_DOUBLE_EQ(a.stats.wall_seconds, b.stats.wall_seconds);
  ASSERT_EQ(a.table.num_hosts(), b.table.num_hosts());
  for (size_t i = 0; i < a.table.num_hosts(); ++i) {
    const HostRecord& ra = a.table.host(i);
    const HostRecord& rb = b.table.host(i);
    EXPECT_EQ(ra.host, rb.host);
    EXPECT_EQ(ra.pages_scanned, rb.pages_scanned);
    EXPECT_EQ(ra.bytes_scanned, rb.bytes_scanned);
    ASSERT_EQ(ra.entities.size(), rb.entities.size()) << ra.host;
    for (size_t j = 0; j < ra.entities.size(); ++j) {
      EXPECT_EQ(ra.entities[j].entity, rb.entities[j].entity);
      EXPECT_EQ(ra.entities[j].pages, rb.entities[j].pages);
    }
  }
}

SnapshotMeta MakeMeta() {
  SnapshotMeta meta;
  meta.domain = Domain::kBanks;
  meta.attr = Attribute::kPhone;
  meta.num_entities = 300;
  meta.seed = 3;
  meta.scale_bits = CanonicalScaleBits(0.05);
  meta.legacy_scan = false;
  meta.shard_index = 0;
  meta.shard_count = 1;
  return meta;
}

TEST(SnapshotTest, EmptyTableRoundTrips) {
  ScanResult empty;
  auto bytes = SerializeSnapshotAligned(empty, MakeMeta());
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshot(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->result.table.num_hosts(), 0u);
  EXPECT_EQ(parsed->result.stats.pages_scanned, 0u);
  auto bytes2 = SerializeSnapshotAligned(parsed->result, parsed->meta);
  ASSERT_TRUE(bytes2.ok());
  EXPECT_EQ(*bytes, *bytes2);
}

TEST(SnapshotTest, TsvLoadedTableRoundTrips) {
  const ScanResult original = MakeResult();
  const std::string tsv =
      (fs::temp_directory_path() / "wsd_store_test_table.tsv").string();
  ASSERT_TRUE(original.table.WriteTsv(tsv).ok());
  auto loaded = HostEntityTable::ReadTsv(tsv);
  std::remove(tsv.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // TSV persists only host + entity:pages (adjacent duplicate ids
  // included), so wrap the reloaded table in a fresh result and require a
  // bit-identical snapshot round trip.
  ScanResult reloaded;
  reloaded.table = std::move(loaded).value();
  auto bytes = SerializeSnapshotAligned(reloaded, MakeMeta());
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshot(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameResult(reloaded, parsed->result);
}

TEST(SnapshotTest, FileRoundTripIsAtomicAndIdentical) {
  const std::string dir = FreshDir("file_rt");
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string path = dir + "/snap.wsdsnap";
  const ScanResult original = MakeResult();
  ASSERT_TRUE(WriteSnapshotFileAligned(path, original, MakeMeta()).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // write-via-rename cleaned up
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameResult(original, loaded->result);
  fs::remove_all(dir);
}

TEST(SnapshotTest, SerializerRejectsContractViolations) {
  ScanResult bad = MakeResult();
  bad.table.mutable_hosts()[0].entities = {{7, 1}, {3, 1}};  // unsorted
  EXPECT_TRUE(
      SerializeSnapshotAligned(bad, MakeMeta()).status().IsInvalidArgument());

  ScanResult invalid_id = MakeResult();
  invalid_id.table.mutable_hosts()[0].entities = {{kInvalidEntityId, 1}};
  EXPECT_TRUE(SerializeSnapshotAligned(invalid_id, MakeMeta())
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Aligned (v2) snapshots.

TEST(SnapshotAlignedTest, RoundTripIsBitIdenticalAndCarriesMeta) {
  const ScanResult original = MakeResult();
  const SnapshotMeta meta = MakeMeta();
  auto bytes = SerializeSnapshotAligned(original, meta);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshot(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameResult(original, parsed->result);
  EXPECT_TRUE(parsed->meta == meta);
  // Canonical encoding: re-serializing reproduces the same bytes.
  auto bytes2 = SerializeSnapshotAligned(parsed->result, parsed->meta);
  ASSERT_TRUE(bytes2.ok());
  EXPECT_EQ(*bytes, *bytes2);
}

TEST(SnapshotAlignedTest, EveryTruncationFailsClosed) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    auto parsed = ParseSnapshot(std::string_view(bytes->data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
  EXPECT_TRUE(ParseSnapshot(*bytes + "x").status().IsCorruption());
}

TEST(SnapshotAlignedTest, EveryByteFlipFailsClosed) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  // Padding bytes sit inside both the section length and the checksum,
  // so even a flipped pad byte must fail.
  for (size_t i = 0; i < bytes->size(); ++i) {
    std::string corrupt = *bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    auto parsed = ParseSnapshot(corrupt);
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << i << " parsed";
  }
}

// Writes `bytes` into the FIFO at `path`, then holds the write end open
// until a reader has drained them, so that reader sees the data and then
// end-of-file.
void FeedFifo(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return;
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  int unread = 0;
  while (::ioctl(fd, FIONREAD, &unread) == 0 && unread > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(fd);
}

TEST(SnapshotAlignedTest, MmapLoadMatchesBufferedParseAndCounts) {
  const std::string dir = FreshDir("mmap");
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string path = dir + "/snap.wsdsnap";
  const ScanResult original = MakeResult();
  const SnapshotMeta meta = MakeMeta();
  ASSERT_TRUE(WriteSnapshotFileAligned(path, original, meta).ok());

  const uint64_t mmaps0 = CounterValue("wsd.store.mmap_loads");
  const uint64_t falls0 = CounterValue("wsd.store.mmap_fallbacks");
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(CounterValue("wsd.store.mmap_loads"), mmaps0 + 1);
  EXPECT_EQ(CounterValue("wsd.store.mmap_fallbacks"), falls0);
  ExpectSameResult(original, loaded->result);
  EXPECT_TRUE(loaded->meta == meta);

  // A file that cannot be mapped (here a FIFO fed by a writer thread) is
  // read into a buffer and parsed the same way: the same result, one
  // fallback, no mmap load.
  auto bytes = SerializeSnapshotAligned(original, meta);
  ASSERT_TRUE(bytes.ok());
  const std::string fifo_path = dir + "/snap.fifo";
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0);
  // A read end held open for the whole load, so the writer neither waits
  // in open() nor hits EPIPE while the loader opens the FIFO, finds it
  // unmappable, closes it and reopens it to read.
  const int keeper = ::open(fifo_path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(keeper, 0);
  std::thread writer([&fifo_path, &bytes] { FeedFifo(fifo_path, *bytes); });
  const uint64_t mmaps1 = CounterValue("wsd.store.mmap_loads");
  auto piped = LoadSnapshotFile(fifo_path);
  writer.join();
  ::close(keeper);
  ASSERT_TRUE(piped.ok()) << piped.status();
  EXPECT_EQ(CounterValue("wsd.store.mmap_fallbacks"), falls0 + 1);
  EXPECT_EQ(CounterValue("wsd.store.mmap_loads"), mmaps1);
  ExpectSameResult(loaded->result, piped->result);
  EXPECT_TRUE(piped->meta == loaded->meta);

  // A truncated file is an error on the mmap path — never a crash, never
  // a silent fallback (the bytes would be just as corrupt there).
  const std::string cut_path = dir + "/cut.wsdsnap";
  {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out << bytes->substr(0, bytes->size() / 2);
  }
  EXPECT_TRUE(LoadSnapshotFile(cut_path).status().IsCorruption());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// v3 snapshots: same layout as v2, but the header version is stamped
// per attribute (SnapshotVersionFor), so post-v2 channels are rejected
// fail-closed by v2-era readers and legacy snapshot bytes never change.

uint32_t HeaderVersion(const std::string& bytes) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + sizeof(kSnapshotMagic), 4);
  return v;
}

TEST(SnapshotV3Test, VersionIsStampedPerAttribute) {
  EXPECT_EQ(SnapshotVersionFor(Attribute::kPhone), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kHomepage), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kIsbn), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kReviews), 2u);
  EXPECT_EQ(SnapshotVersionFor(Attribute::kMicrodata),
            kSnapshotSchemaVersionV3);

  auto legacy = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(HeaderVersion(*legacy), kSnapshotSchemaVersionAligned);

  SnapshotMeta meta = MakeMeta();
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kMicrodata;
  auto v3 = SerializeSnapshotAligned(MakeResult(), meta);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(HeaderVersion(*v3), kSnapshotSchemaVersionV3);
}

TEST(SnapshotV3Test, MicrodataSnapshotRoundTripsEverywhere) {
  const ScanResult original = MakeResult();
  SnapshotMeta meta = MakeMeta();
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kMicrodata;
  auto bytes = SerializeSnapshotAligned(original, meta);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto parsed = ParseSnapshot(*bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameResult(original, parsed->result);
  EXPECT_TRUE(parsed->meta == meta);

  // The mmap path accepts v3 without a buffered fallback.
  const std::string dir = FreshDir("v3_mmap");
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string path = dir + "/snap.wsdsnap";
  ASSERT_TRUE(WriteSnapshotFileAligned(path, original, meta).ok());
  const uint64_t mmaps0 = CounterValue("wsd.store.mmap_loads");
  const uint64_t falls0 = CounterValue("wsd.store.mmap_fallbacks");
  auto loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(CounterValue("wsd.store.mmap_loads"), mmaps0 + 1);
  EXPECT_EQ(CounterValue("wsd.store.mmap_fallbacks"), falls0);
  ExpectSameResult(original, loaded->result);
  fs::remove_all(dir);
}

TEST(SnapshotV3Test, ForgedHeaderVersionIsRejected) {
  // The header version word is outside the section checksums, so a
  // forged/buggy writer could stamp v2 on a file carrying an attribute
  // no v2 writer knew, or v3 on a legacy-channel table (re-encoding would
  // stamp v2, giving the table a second encoding). The vocabulary
  // cross-check refuses both.
  struct Case {
    Attribute attr;
    uint32_t stamped;
    const char* message;
  };
  for (const Case& c :
       {Case{Attribute::kMicrodata, kSnapshotSchemaVersionAligned,
             "requires schema v3"},
        Case{Attribute::kPhone, kSnapshotSchemaVersionV3,
             "requires schema v2"}}) {
    SnapshotMeta meta = MakeMeta();
    meta.domain = Domain::kRestaurants;
    meta.attr = c.attr;
    auto bytes = SerializeSnapshotAligned(MakeResult(), meta);
    ASSERT_TRUE(bytes.ok());
    std::string forged = *bytes;
    std::memcpy(forged.data() + sizeof(kSnapshotMagic), &c.stamped, 4);
    auto parsed = ParseSnapshot(forged);
    ASSERT_FALSE(parsed.ok()) << c.message;
    EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status();
    EXPECT_NE(parsed.status().message().find(c.message), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(SnapshotV3Test, UnknownFutureVersionIsRejected) {
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  for (const uint32_t version : {4u, 9u}) {
    std::string future = *bytes;
    std::memcpy(future.data() + sizeof(kSnapshotMagic), &version, 4);
    auto parsed = ParseSnapshot(future);
    ASSERT_FALSE(parsed.ok()) << "v" << version;
    EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status();
    EXPECT_NE(parsed.status().message().find("version"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(SnapshotV3Test, EveryTruncationAndByteFlipFailsClosed) {
  SnapshotMeta meta = MakeMeta();
  meta.domain = Domain::kRestaurants;
  meta.attr = Attribute::kMicrodata;
  auto bytes = SerializeSnapshotAligned(MakeResult(), meta);
  ASSERT_TRUE(bytes.ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    EXPECT_FALSE(ParseSnapshot(std::string_view(bytes->data(), len)).ok())
        << "prefix of " << len << " bytes parsed";
  }
  for (size_t i = 0; i < bytes->size(); ++i) {
    std::string corrupt = *bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xff);
    EXPECT_FALSE(ParseSnapshot(corrupt).ok())
        << "flip at byte " << i << " parsed";
  }
}

TEST(SnapshotAlignedTest, CanonicalScaleBitsCollapsesAliases) {
  EXPECT_EQ(CanonicalScaleBits(0.0), CanonicalScaleBits(-0.0));
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double signaling_nan = std::numeric_limits<double>::signaling_NaN();
  EXPECT_EQ(CanonicalScaleBits(quiet_nan), CanonicalScaleBits(-quiet_nan));
  EXPECT_EQ(CanonicalScaleBits(quiet_nan), CanonicalScaleBits(signaling_nan));
  EXPECT_NE(CanonicalScaleBits(1.0), CanonicalScaleBits(2.0));
}

TEST(SnapshotTest, RejectsForeignAndTrailingBytes) {
  EXPECT_TRUE(ParseSnapshot("").status().IsCorruption());
  EXPECT_TRUE(ParseSnapshot("WSDCACHE1\nnot a snapshot at all")
                  .status()
                  .IsCorruption());
  auto bytes = SerializeSnapshotAligned(MakeResult(), MakeMeta());
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(ParseSnapshot(*bytes + "x").status().IsCorruption());
}

TEST(ArtifactKeyTest, FilenameTracksEveryField) {
  ArtifactKey key;
  key.domain = Domain::kRestaurants;
  key.attr = Attribute::kPhone;
  key.num_entities = 2000;
  key.seed = 42;
  key.scale = 1.0;
  const std::string base = key.Filename();
  EXPECT_NE(base.find("Restaurants-phone-"), std::string::npos);
  EXPECT_NE(base.find(".wsdsnap"), std::string::npos);

  ArtifactKey other = key;
  other.seed = 43;
  EXPECT_NE(other.Filename(), base);
  other = key;
  other.scale = 2.0;
  EXPECT_NE(other.Filename(), base);
  other = key;
  other.num_entities = 2001;
  EXPECT_NE(other.Filename(), base);
  other = key;
  other.legacy_scan = true;
  EXPECT_NE(other.Filename(), base);
  other = key;
  other.attr = Attribute::kHomepage;
  EXPECT_NE(other.Filename(), base);
  EXPECT_EQ(ArtifactKey(key).Filename(), base);
}

// Regression: the key hashes the raw IEEE bits of `scale`, so the bit
// aliases of a numeric value (-0.0 vs +0.0, NaN payload variants) must
// be canonicalized first or equal scales would map to distinct
// artifacts.
TEST(ArtifactKeyTest, ScaleBitAliasesShareOneKey) {
  ArtifactKey key;
  key.num_entities = 2000;
  key.seed = 42;
  key.scale = 0.0;
  ArtifactKey negzero = key;
  negzero.scale = -0.0;
  EXPECT_EQ(key.Filename(), negzero.Filename());
  EXPECT_EQ(key.CanonicalString(), negzero.CanonicalString());

  ArtifactKey qnan = key;
  qnan.scale = std::numeric_limits<double>::quiet_NaN();
  ArtifactKey snan = key;
  snan.scale = std::numeric_limits<double>::signaling_NaN();
  ArtifactKey neg_qnan = key;
  neg_qnan.scale = -std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(qnan.Filename(), snan.Filename());
  EXPECT_EQ(qnan.Filename(), neg_qnan.Filename());
  EXPECT_NE(qnan.Filename(), key.Filename());  // NaN is still its own key
}

TEST(ArtifactStoreTest, MissThenStoreThenHit) {
  const std::string dir = FreshDir("miss_hit");
  const ArtifactStore store(dir);
  ArtifactKey key;
  key.num_entities = 128;
  key.seed = 9;

  const uint64_t misses0 = CounterValue("wsd.artifact.misses");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  EXPECT_TRUE(store.Load(key).status().IsNotFound());
  EXPECT_EQ(CounterValue("wsd.artifact.misses"), misses0 + 1);

  const ScanResult result = MakeResult();
  const uint64_t written0 = CounterValue("wsd.artifact.write_bytes");
  ASSERT_TRUE(store.Store(key, result).ok());
  EXPECT_GT(CounterValue("wsd.artifact.write_bytes"), written0);

  auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0 + 1);
  ExpectSameResult(result, *loaded);
  fs::remove_all(dir);
}

TEST(ArtifactStoreTest, CorruptArtifactCountsVerifyFailure) {
  const std::string dir = FreshDir("corrupt");
  const ArtifactStore store(dir);
  ArtifactKey key;
  key.num_entities = 64;
  ASSERT_TRUE(store.Store(key, MakeResult()).ok());

  // Flip one byte in the stored snapshot.
  const std::string path = store.PathFor(key);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(file.tellg());
  file.seekp(size / 2);
  file.put('\xff');
  file.close();

  const uint64_t failures0 = CounterValue("wsd.artifact.verify_failures");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  EXPECT_FALSE(store.Load(key).ok());
  EXPECT_EQ(CounterValue("wsd.artifact.verify_failures"), failures0 + 1);
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0);
  fs::remove_all(dir);
}

// A stored snapshot carries its provenance, and Load cross-checks it
// against the requested key: a file that answers to the wrong key (e.g.
// copied or renamed by hand) is a verify failure, not a silent hit.
TEST(ArtifactStoreTest, ProvenanceMismatchCountsVerifyFailure) {
  const std::string dir = FreshDir("provenance");
  const ArtifactStore store(dir);
  ArtifactKey key;
  key.num_entities = 64;
  key.seed = 7;
  ASSERT_TRUE(store.Store(key, MakeResult()).ok());

  ArtifactKey other = key;
  other.seed = 8;
  fs::copy_file(store.PathFor(key), store.PathFor(other));

  const uint64_t failures0 = CounterValue("wsd.artifact.verify_failures");
  auto loaded = store.Load(other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("provenance"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_EQ(CounterValue("wsd.artifact.verify_failures"), failures0 + 1);

  // The honest key still loads.
  EXPECT_TRUE(store.Load(key).ok());
  fs::remove_all(dir);
}

// A snapshot in the retired v1 layout, assembled by hand since no encoder
// for it is left: magic, version 1, section count 2, then per section
// id u32 | payload length u64 | XXH64 u64 | payload. Section 1 holds six
// LEB128 varint counters plus the raw bits of wall_seconds; section 2
// holds one host with one entity as varint columns. Every value is below
// 128, so each varint is one byte.
std::string V1SnapshotBytes() {
  auto put_le = [](uint64_t v, int width, std::string* out) {
    for (int i = 0; i < width; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  // hosts, pages, bytes, mentions, review pages, skipped URLs
  std::string stats = {1, 3, 100, 2, 0, 0};
  stats.append(8, '\0');  // wall_seconds = 0.0
  const std::string host = "alpha.example.com";
  std::string hosts = {1, static_cast<char>(host.size())};
  hosts += host;
  // pages, bytes, entity count, entity id 5, its page count
  hosts += std::string{3, 100, 1, 5, 2};

  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_le(1, 4, &out);  // schema version
  put_le(2, 4, &out);  // section count
  for (const auto& [id, payload] :
       {std::pair<uint32_t, std::string>{1, stats}, {2, hosts}}) {
    put_le(id, 4, &out);
    put_le(payload.size(), 8, &out);
    put_le(XxHash64(payload), 8, &out);
    out += payload;
  }
  return out;
}

// A v1 file carries no provenance, so a loader that read it could not
// tell which key it belongs to. It must be a verify failure, not a hit
// for whatever key it sits under.
TEST(ArtifactStoreTest, V1FileUnderKeyIsVerifyFailure) {
  const std::string dir = FreshDir("v1");
  ASSERT_TRUE(fs::create_directories(dir));
  const ArtifactStore store(dir);
  ArtifactKey key;
  key.num_entities = 64;
  const std::string v1 = V1SnapshotBytes();
  const std::string path = store.PathFor(key);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << v1;
  }

  const uint64_t failures0 = CounterValue("wsd.artifact.verify_failures");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  EXPECT_FALSE(store.Load(key).ok());
  EXPECT_EQ(CounterValue("wsd.artifact.verify_failures"), failures0 + 1);
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0);

  // The parser and the file loader both refuse it, naming the version.
  for (const Status& status :
       {ParseSnapshot(v1).status(), LoadSnapshotFile(path).status()}) {
    EXPECT_TRUE(status.IsCorruption()) << status;
    EXPECT_NE(status.message().find("file v1"), std::string::npos)
        << status.ToString();
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Study integration: scan-once / analyze-many.

StudyOptions SmallOptions() {
  StudyOptions options;
  options.num_entities = 1000;
  options.scale = 0.05;
  options.seed = 11;
  options.threads = 2;
  return options;
}

// The acceptance criterion for the artifact store: however many analyses
// run, a Study performs exactly one live scan per (domain, attr) — and a
// second Study over the same artifact directory performs none.
TEST(StudyArtifactTest, ScanOnceAnalyzeMany) {
  const std::string dir = FreshDir("study_once");
  StudyOptions options = SmallOptions();
  options.artifact_dir = dir;

  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  Study cold(options);
  auto cold_scan = cold.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(cold_scan.ok()) << cold_scan.status();
  auto spread = cold.RunSpread(*cold_scan);
  ASSERT_TRUE(spread.ok()) << spread.status();
  auto cover = cold.RunSetCover(*cold_scan);
  ASSERT_TRUE(cover.ok()) << cover.status();
  auto row = cold.RunGraphMetrics(*cold_scan);
  ASSERT_TRUE(row.ok()) << row.status();
  auto sweep = cold.RunRobustness(*cold_scan);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1)
      << "four analyses must share one scan";

  // Warm Study: the snapshot satisfies the scan, so zero live scans.
  Study warm(options);
  auto warm_scan = warm.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(warm_scan.ok()) << warm_scan.status();
  auto warm_spread = warm.RunSpread(*warm_scan);
  ASSERT_TRUE(warm_spread.ok()) << warm_spread.status();
  auto warm_sweep = warm.RunRobustness(*warm_scan);
  ASSERT_TRUE(warm_sweep.ok()) << warm_sweep.status();
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  EXPECT_GT(CounterValue("wsd.artifact.hits"), hits0);

  // And the cached scan produces identical analysis results.
  ASSERT_EQ(spread->curve.t_values, warm_spread->curve.t_values);
  ASSERT_EQ(spread->curve.k_coverage.size(),
            warm_spread->curve.k_coverage.size());
  for (size_t k = 0; k < spread->curve.k_coverage.size(); ++k) {
    ASSERT_EQ(spread->curve.k_coverage[k], warm_spread->curve.k_coverage[k]);
  }
  ASSERT_EQ(sweep->size(), warm_sweep->size());
  for (size_t i = 0; i < sweep->size(); ++i) {
    EXPECT_EQ((*sweep)[i].num_components, (*warm_sweep)[i].num_components);
    EXPECT_EQ((*sweep)[i].largest_component_entity_fraction,
              (*warm_sweep)[i].largest_component_entity_fraction);
  }
  fs::remove_all(dir);
}

// Without an artifact dir the per-Study memo still collapses repeat
// scans of the same (domain, attr).
TEST(StudyArtifactTest, InMemoryMemoAvoidsRescans) {
  Study study(SmallOptions());
  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  auto a = study.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(a.ok());
  auto b = study.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  ExpectSameResult(*a, *b);
  // A different attribute is a different scan.
  auto c = study.RunScan(Domain::kBanks, Attribute::kHomepage);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 2);
}

// A stale/corrupt artifact falls back to a live scan with identical
// results (and rewrites the artifact).
TEST(StudyArtifactTest, CorruptArtifactFallsBackToLiveScan) {
  const std::string dir = FreshDir("study_fallback");
  StudyOptions options = SmallOptions();
  options.artifact_dir = dir;

  ScanResult fresh;
  {
    Study study(options);
    auto scan = study.RunScan(Domain::kBanks, Attribute::kPhone);
    ASSERT_TRUE(scan.ok());
    fresh = std::move(scan).value();
  }
  // Truncate the single stored artifact.
  bool truncated_one = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << "WSDSNAP1 but not really";
    truncated_one = true;
  }
  ASSERT_TRUE(truncated_one);

  const uint64_t failures0 = CounterValue("wsd.artifact.verify_failures");
  const uint64_t runs0 = CounterValue("wsd.scan.runs");
  Study study(options);
  auto scan = study.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(CounterValue("wsd.artifact.verify_failures"), failures0 + 1);
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  // Two independent live scans: identical up to wall-clock time.
  scan->stats.wall_seconds = fresh.stats.wall_seconds;
  ExpectSameResult(fresh, *scan);

  // The rescan re-persisted a valid artifact: a third Study hits it.
  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  Study rewarmed(options);
  auto again = rewarmed.RunScan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0 + 1);
  EXPECT_EQ(CounterValue("wsd.scan.runs"), runs0 + 1);
  fs::remove_all(dir);
}

// An artifact stored under a key the registry does not allow (by an
// older build, or installed by `wsdctl merge`) never answers: Study::Scan
// refuses the pair before it consults the store.
TEST(StudyArtifactTest, InapplicableKeyIsRefusedBeforeTheStore) {
  const std::string dir = FreshDir("study_inapplicable");
  StudyOptions options = SmallOptions();
  options.artifact_dir = dir;
  ScanResult banks;
  {
    Study study(options);
    auto scan = study.RunScan(Domain::kBanks, Attribute::kPhone);
    ASSERT_TRUE(scan.ok()) << scan.status();
    banks = std::move(scan).value();
  }
  ArtifactKey key;
  key.domain = Domain::kBooks;
  key.attr = Attribute::kPhone;
  key.num_entities = options.num_entities;
  key.seed = options.seed;
  key.scale = options.scale;
  const ArtifactStore store(dir);
  ASSERT_TRUE(store.Store(key, banks).ok());
  ASSERT_TRUE(store.Load(key).ok());

  const uint64_t hits0 = CounterValue("wsd.artifact.hits");
  Study study(options);
  auto refused = study.Scan(Domain::kBooks, Attribute::kPhone);
  EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status();
  EXPECT_EQ(CounterValue("wsd.artifact.hits"), hits0);
  fs::remove_all(dir);
}

// Analyses through a ScanHandle are deterministic: two independent
// Studies over the same options agree on every handle-path analysis.
TEST(StudyArtifactTest, HandleAnalysesAreDeterministic) {
  Study s1(SmallOptions());
  Study s2(SmallOptions());
  auto h1 = s1.Scan(Domain::kBanks, Attribute::kPhone);
  auto h2 = s2.Scan(Domain::kBanks, Attribute::kPhone);
  ASSERT_TRUE(h1.ok()) << h1.status();
  ASSERT_TRUE(h2.ok()) << h2.status();
  EXPECT_EQ(h1->domain(), Domain::kBanks);
  EXPECT_EQ(h1->attr(), Attribute::kPhone);

  auto spread1 = s1.RunSpread(*h1);
  auto spread2 = s2.RunSpread(*h2);
  ASSERT_TRUE(spread1.ok());
  ASSERT_TRUE(spread2.ok());
  for (size_t k = 0; k < spread1->curve.k_coverage.size(); ++k) {
    ASSERT_EQ(spread1->curve.k_coverage[k], spread2->curve.k_coverage[k]);
  }

  auto row1 = s1.RunGraphMetrics(*h1);
  auto row2 = s2.RunGraphMetrics(*h2);
  ASSERT_TRUE(row1.ok());
  ASSERT_TRUE(row2.ok());
  EXPECT_EQ(row1->num_components, row2->num_components);
  EXPECT_EQ(row1->diameter, row2->diameter);
  EXPECT_EQ(row1->num_edges, row2->num_edges);

  auto sweep1 = s1.RunRobustness(*h1);
  auto sweep2 = s2.RunRobustness(*h2);
  ASSERT_TRUE(sweep1.ok());
  ASSERT_TRUE(sweep2.ok());
  ASSERT_EQ(sweep1->size(), sweep2->size());
  for (size_t i = 0; i < sweep1->size(); ++i) {
    EXPECT_EQ((*sweep1)[i].num_components, (*sweep2)[i].num_components);
  }

  auto cover1 = s1.RunSetCover(*h1);
  auto cover2 = s2.RunSetCover(*h2);
  ASSERT_TRUE(cover1.ok());
  ASSERT_TRUE(cover2.ok());
  EXPECT_EQ(cover1->greedy_coverage, cover2->greedy_coverage);
}

}  // namespace
}  // namespace wsd
