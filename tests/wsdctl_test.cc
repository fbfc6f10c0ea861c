// Integration smoke tests for the wsdctl CLI: exit codes, TSV output,
// the pinned `paper` outputs, and the gen-cache/scan-cache loop,
// exercised through the real binary; plus wsdd's refusal of malformed
// numeric flags. Skipped gracefully if the tools target was not built.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "extract/host_table.h"
#include "serve/endpoints.h"
#include "store/snapshot.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace wsd {
namespace {

namespace fs = std::filesystem;

// The test binary runs with CWD = build/tests; the tools sit in
// ../tools/. Fall back to a PATH-relative probe for other layouts.
std::string ToolPath(const std::string& name) {
  for (const char* dir : {"../tools/", "./tools/", "build/tools/"}) {
    if (fs::exists(dir + name)) return dir + name;
  }
  return "";
}

std::string CliPath() { return ToolPath("wsdctl"); }

// Runs wsdctl with stdout discarded and stderr sent to `err_path`.
int RunCli(const std::string& args,
           const std::string& err_path = "/dev/null") {
  const std::string cli = CliPath();
  if (cli.empty()) return -1;
  const std::string command =
      cli + " " + args + " > /dev/null 2> " + err_path;
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

#define SKIP_WITHOUT_CLI()                              \
  if (CliPath().empty()) {                              \
    GTEST_SKIP() << "wsdctl binary not found";          \
  }

TEST(WsdctlTest, HelpAndUnknownCommand) {
  SKIP_WITHOUT_CLI();
  EXPECT_EQ(RunCli("help"), 0);
  EXPECT_EQ(RunCli(""), 0);  // no args -> help
  EXPECT_EQ(RunCli("frobnicate"), 2);
}

TEST(WsdctlTest, RejectsBadDomainOrAttr) {
  SKIP_WITHOUT_CLI();
  EXPECT_EQ(RunCli("spread --domain nonsense --attr phone"), 2);
  EXPECT_EQ(RunCli("spread --domain banks --attr nonsense"), 2);
  EXPECT_EQ(RunCli("value --site myspace"), 2);
}

TEST(WsdctlTest, SpreadWritesTsv) {
  SKIP_WITHOUT_CLI();
  const std::string out =
      (fs::temp_directory_path() / "wsdctl_spread.tsv").string();
  ASSERT_EQ(RunCli("spread --domain banks --attr phone --entities 300 "
                "--scale 0.05 --seed 3 --out " +
                out),
            0);
  std::ifstream in(out);
  ASSERT_TRUE(in.is_open());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("t\tk1\tk2", 0), 0u) << header;
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_GT(rows, 3);
  std::remove(out.c_str());
}

TEST(WsdctlTest, MalformedNumericFlagIsUsageError) {
  SKIP_WITHOUT_CLI();
  // None of these may fall back to the env or default value: the study
  // would run at a size nobody asked for. The usage error comes before
  // any scan.
  for (const char* flags :
       {"--entities 4OO --scale 0.05 --seed 3",
        "--entities 400 --scale 0,05 --seed 3",
        "--entities 400 --scale 0 --seed 3",
        "--entities 400 --scale=-1 --seed 3",
        "--entities 400 --scale nan --seed 3",
        "--entities 400 --scale 0.05 --seed 3x",
        "--entities 4294967296 --scale 0.05 --seed 3",
        "--entities 400 --scale 0.05 --seed 3 --threads 4294967296",
        "--entities 400 --scale 0.05 --seed 3 --threads=-1"}) {
    EXPECT_EQ(RunCli(std::string("scan --domain banks --attr phone ") +
                     flags),
              2)
        << flags;
  }
  // bootstrap's trial count runs from 1 to UINT32_MAX: no fallback to one
  // trial, no truncation past UINT32_MAX.
  const std::string err =
      (fs::temp_directory_path() / "wsdctl_bootstrap_seeds.txt").string();
  const std::string bootstrap =
      "bootstrap --domain banks --attr phone --entities 300 --scale 0.05 "
      "--seed 3 --seeds=";
  for (const std::string seeds : {"abc", "0", "4294967296", "-1", "2x"}) {
    EXPECT_EQ(RunCli(bootstrap + seeds, err), 2) << seeds;
    EXPECT_NE(ReadFile(err).find("invalid --seeds value '" + seeds + "'"),
              std::string::npos)
        << seeds << ": " << ReadFile(err);
  }
  EXPECT_EQ(RunCli(bootstrap + "2"), 0);
  std::remove(err.c_str());
}

// wsdd refuses a malformed or out-of-range numeric flag, naming it, before
// it listens. Each run is bounded by `timeout`: a wsdd that took the value
// (or fell back to its default) would serve until killed, and the test
// would see timeout's 124 instead of 2.
TEST(WsddTest, MalformedNumericFlagIsUsageError) {
  const std::string wsdd = ToolPath("wsdd");
  if (wsdd.empty()) GTEST_SKIP() << "wsdd binary not found";
  const std::string out =
      (fs::temp_directory_path() / "wsdd_flags_out.txt").string();
  const std::string err =
      (fs::temp_directory_path() / "wsdd_flags_err.txt").string();
  const auto run = [&](const std::string& flags, int seconds) {
    const std::string command = "timeout " + std::to_string(seconds) + " " +
                                wsdd + " " + flags + " > " + out + " 2> " +
                                err;
    return WEXITSTATUS(std::system(command.c_str()));
  };
  const std::pair<std::string, std::string> bad[] = {
      {"port", "70000"},
      {"port", "-1"},
      {"port", "abc"},
      {"cache-bytes", "abc"},
      {"cache-bytes", "18446744073709551616"},
      {"response-cache-bytes", "1e6"},
      {"conn-threads", "0"},
      {"conn-threads", "x"},
      {"read-timeout-ms", "0"},
      {"read-timeout-ms", "5s"},
  };
  for (const auto& [flag, value] : bad) {
    const std::string flags =
        (flag == "port" ? "" : "--port=0 ") + ("--" + flag + "=" + value);
    const std::string want = "invalid --" + flag + " value '" + value + "'";
    EXPECT_EQ(run(flags, 10), 2) << flags;
    EXPECT_NE(ReadFile(err).find(want), std::string::npos)
        << flags << ": " << ReadFile(err);
  }
  // In-range values start the server, which serves until the timeout.
  const std::string good =
      "--port=0 --cache-bytes=0 --response-cache-bytes=0 --conn-threads=2 "
      "--read-timeout-ms=100";
  EXPECT_EQ(run(good, 2), 124);
  EXPECT_NE(ReadFile(out).find("wsdd: listening on"), std::string::npos)
      << ReadFile(out) << ReadFile(err);
  std::remove(out.c_str());
  std::remove(err.c_str());
}

TEST(WsdctlTest, GenCacheThenScanCache) {
  SKIP_WITHOUT_CLI();
  const std::string cache =
      (fs::temp_directory_path() / "wsdctl_cache.bin").string();
  const std::string common =
      "--domain banks --attr phone --entities 300 --scale 0.05 --seed 3 ";
  ASSERT_EQ(RunCli("gen-cache " + common + "--out " + cache), 0);
  ASSERT_TRUE(fs::exists(cache));
  EXPECT_GT(fs::file_size(cache), 1000u);
  EXPECT_EQ(RunCli("scan-cache " + common + "--in " + cache), 0);
  // Scanning a missing cache fails.
  EXPECT_EQ(RunCli("scan-cache " + common + "--in /nonexistent/c.bin"), 1);
  std::remove(cache.c_str());
}

TEST(WsdctlTest, GraphCommandRuns) {
  SKIP_WITHOUT_CLI();
  EXPECT_EQ(RunCli("graph --domain banks --attr phone --entities 300 "
                "--scale 0.05 --seed 3"),
            0);
}

// A known pair whose catalog lacks the identifier (books have no phones)
// is refused with the study's InvalidArgument, not a crash: by a command
// that builds the web, and by scan-cache, which reads a cache file of
// another domain's pages instead.
TEST(WsdctlTest, InapplicablePairIsRefused) {
  SKIP_WITHOUT_CLI();
  const std::string err =
      (fs::temp_directory_path() / "wsdctl_inapplicable.txt").string();
  const std::string cache =
      (fs::temp_directory_path() / "wsdctl_inapplicable.bin").string();
  const std::string tiny = " --entities 300 --scale 0.05 --seed 3";
  ASSERT_EQ(RunCli("gen-cache --domain banks --attr phone --out " + cache +
                   tiny),
            0);
  for (const std::string command : {std::string("spread"),
                                    "scan-cache --in " + cache}) {
    EXPECT_EQ(RunCli(command + " --domain books --attr phone" + tiny, err), 1)
        << command;
    EXPECT_NE(ReadFile(err).find("phone does not apply to domain Books"),
              std::string::npos)
        << command << ": " << ReadFile(err);
  }
  std::remove(cache.c_str());
  std::remove(err.c_str());
}

TEST(WsdctlTest, MetricsSubcommandDumpsPopulatedRegistry) {
  SKIP_WITHOUT_CLI();
  const std::string out =
      (fs::temp_directory_path() / "wsdctl_metrics.prom").string();
  const std::string command =
      CliPath() +
      " metrics --domain banks --attr phone --entities 300 --scale 0.05"
      " --seed 3 > " +
      out + " 2>/dev/null";
  ASSERT_EQ(WEXITSTATUS(std::system(command.c_str())), 0);
  const std::string text = ReadFile(out);
  // Counters, gauges and shard/run/task histograms must all be present
  // after a scan (Prometheus exposition names).
  EXPECT_NE(text.find("wsd_scan_pages "), std::string::npos) << text;
  EXPECT_NE(text.find("wsd_pool_tasks_completed "), std::string::npos);
  EXPECT_NE(text.find("wsd_scan_shard_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("wsd_scan_run_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("wsd_pool_task_seconds_sum"), std::string::npos);
  std::remove(out.c_str());
}

TEST(WsdctlTest, MetricsOutWritesJsonForAnyCommand) {
  SKIP_WITHOUT_CLI();
  const std::string out =
      (fs::temp_directory_path() / "wsdctl_metrics.json").string();
  ASSERT_EQ(RunCli("graph --domain banks --attr phone --entities 300 "
                   "--scale 0.05 --seed 3 --metrics_out=" +
                   out),
            0);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("\"wsd.scan.pages\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"wsd.graph.diameter_seconds\""), std::string::npos);
  EXPECT_NE(text.find("\"wsd.graph.components_seconds\""), std::string::npos);
  std::remove(out.c_str());
}

TEST(WsdctlTest, ScanWritesLoadableSnapshot) {
  SKIP_WITHOUT_CLI();
  const std::string snap =
      (fs::temp_directory_path() / "wsdctl_scan.wsdsnap").string();
  const std::string tsv =
      (fs::temp_directory_path() / "wsdctl_scan.tsv").string();
  ASSERT_EQ(RunCli("scan --domain banks --attr phone --entities 300 "
                   "--scale 0.05 --seed 3 --out=" +
                   snap + " --table-out=" + tsv),
            0);
  auto parsed = LoadSnapshotFile(snap);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const HostEntityTable& loaded = parsed->result.table;
  EXPECT_GT(loaded.num_hosts(), 0u);
  EXPECT_GT(parsed->result.stats.pages_scanned, 0u);
  // The snapshot's table matches the TSV the same run wrote.
  auto table = HostEntityTable::ReadTsv(tsv);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(loaded.num_hosts(), table->num_hosts());
  for (size_t i = 0; i < table->num_hosts(); ++i) {
    EXPECT_EQ(loaded.host(i).host, table->host(i).host);
    EXPECT_EQ(loaded.host(i).entities.size(),
              table->host(i).entities.size());
  }
  std::remove(snap.c_str());
  std::remove(tsv.c_str());
}

// `wsdctl paper` at a small configuration, every file pinned by its XXH64
// digest: a change to any value, format or column of the 32 files
// (anchors.tsv included) fails here with the file's name. On a mismatch
// the message prints the current table in the form below.
const char kPaperFlags[] = "--entities 400 --scale 0.05 --seed 3";

const std::map<std::string, uint64_t>& PinnedPaperDigests() {
  static const std::map<std::string, uint64_t> kDigests = {
      {"anchors.tsv", 0xae4d865defa5210dULL},
      {"fig1_phone_automotive.tsv", 0xb7ed4436fd5daf8aULL},
      {"fig1_phone_banks.tsv", 0x591038bb35f9f8ffULL},
      {"fig1_phone_home___garden.tsv", 0xb7ed4436fd5daf8aULL},
      {"fig1_phone_hotels___lodging.tsv", 0x1d267509758f75edULL},
      {"fig1_phone_libraries.tsv", 0x2638698ef983d56aULL},
      {"fig1_phone_restaurants.tsv", 0x2c744ea15ddda2f4ULL},
      {"fig1_phone_retail___shopping.tsv", 0x2c0dd6b4941ca9d2ULL},
      {"fig1_phone_schools.tsv", 0x2a822e87213083cbULL},
      {"fig2_homepage_automotive.tsv", 0x2cb840d2ebd879ecULL},
      {"fig2_homepage_banks.tsv", 0xa0039fc0e58a0db1ULL},
      {"fig2_homepage_home___garden.tsv", 0x499fb4fa844a8e93ULL},
      {"fig2_homepage_hotels___lodging.tsv", 0xb87d05e46777f5e0ULL},
      {"fig2_homepage_libraries.tsv", 0xd9e1f004e0a22fa4ULL},
      {"fig2_homepage_restaurants.tsv", 0x3b05235e6f34e248ULL},
      {"fig2_homepage_retail___shopping.tsv", 0x50e48be0bccdf6beULL},
      {"fig2_homepage_schools.tsv", 0x0a74642afadf43a4ULL},
      {"fig3_isbn_books.tsv", 0xa93ee2abccf91a03ULL},
      {"fig4a_reviews_sites.tsv", 0x9a66012c0b799d3bULL},
      {"fig4b_reviews_pages.tsv", 0x0a4103da2d31fd61ULL},
      {"fig5_setcover.tsv", 0xa10d33e09a3b4531ULL},
      {"fig6_demand_amazon.tsv", 0xf1a837a214a42d7cULL},
      {"fig6_demand_imdb.tsv", 0x8285396d45649a5bULL},
      {"fig6_demand_yelp.tsv", 0x3f188e4bd152276aULL},
      {"fig6_rank_amazon.tsv", 0x8aaac0f38703fa3aULL},
      {"fig6_rank_imdb.tsv", 0x2665aca8f3a69120ULL},
      {"fig6_rank_yelp.tsv", 0x25bfd73a106506e8ULL},
      {"fig7_fig8_value_amazon.tsv", 0x48bf4b37eebe969eULL},
      {"fig7_fig8_value_imdb.tsv", 0xb36ce511ff7dc2fbULL},
      {"fig7_fig8_value_yelp.tsv", 0x0be3b77c27eb5d58ULL},
      {"fig9_robustness.tsv", 0x982b4021f9928a65ULL},
      {"table2_graphs.tsv", 0xe94d651fe451ec7aULL},
  };
  return kDigests;
}

TEST(WsdctlTest, PaperOutputsArePinned) {
  SKIP_WITHOUT_CLI();
  const fs::path dir = fs::temp_directory_path() / "wsdctl_paper_pinned";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  ASSERT_EQ(RunCli(std::string("paper ") + kPaperFlags + " --outdir " +
                   dir.string()),
            0);
  std::map<std::string, uint64_t> digests;
  std::string table;  // the recorded form, printed on a mismatch
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    digests[name] = XxHash64(ReadFile(entry.path().string()));
  }
  for (const auto& [name, digest] : digests) {
    AppendFormat(&table, "      {\"%s\", 0x%016llxULL},\n", name.c_str(),
                 static_cast<unsigned long long>(digest));
  }
  EXPECT_EQ(digests.size(), 32u);
  EXPECT_EQ(digests, PinnedPaperDigests()) << table;
  fs::remove_all(dir);
}

// Every `wsdctl paper` write goes through one checked write: a file that
// cannot be written exits 1 and names its path on stderr.
TEST(WsdctlTest, PaperReportsUnwritableOutput) {
  SKIP_WITHOUT_CLI();
  const fs::path dir = fs::temp_directory_path() / "wsdctl_paper_blocked";
  for (const char* blocked :
       {"fig3_isbn_books.tsv", "fig5_setcover.tsv", "fig6_rank_yelp.tsv",
        "table2_graphs.tsv", "anchors.tsv"}) {
    fs::remove_all(dir);
    // A directory where the TSV should go makes the write fail.
    ASSERT_TRUE(fs::create_directories(dir / blocked));
    const std::string err = (dir / "stderr.txt").string();
    EXPECT_EQ(RunCli(std::string("paper ") + kPaperFlags + " --outdir " +
                         dir.string(),
                     err),
              1)
        << blocked;
    EXPECT_NE(ReadFile(err).find((dir / blocked).string()),
              std::string::npos)
        << blocked << ": " << ReadFile(err);
  }
  fs::remove_all(dir);
}

// wsdctl's --out files and wsdd's TSV bodies come from the same
// renderers (core/report.h), so at the same options they are the same
// bytes.
TEST(WsdctlTest, TsvOutMatchesServedBody) {
  SKIP_WITHOUT_CLI();
  StudyOptions base;
  base.num_entities = 400;
  base.scale = 0.05;
  base.seed = 3;
  base.threads = 2;
  ScanHandleCache cache(base, 64u * 1024 * 1024);
  ServeContext ctx;
  ctx.base = base;
  ctx.cache = &cache;
  const std::string out =
      (fs::temp_directory_path() / "wsdctl_served.tsv").string();
  const struct {
    const char* command;
    const char* target;
  } kCases[] = {
      {"spread --domain banks --attr phone",
       "/spread?domain=banks&attr=phone&format=tsv"},
      {"setcover --domain restaurants --attr homepage",
       "/setcover?domain=restaurants&attr=homepage&format=tsv"},
      {"graph --domain banks --attr phone",
       "/graph?domain=banks&attr=phone&format=tsv"},
      {"value --site yelp", "/demand?site=yelp&format=tsv"},
  };
  for (const auto& c : kCases) {
    std::remove(out.c_str());
    ASSERT_EQ(RunCli(std::string(c.command) + " " + kPaperFlags +
                     " --out " + out),
              0)
        << c.command;
    const auto parsed = ParseHttpRequest(
        std::string("GET ") + c.target + " HTTP/1.1\r\n\r\n", HttpLimits());
    ASSERT_EQ(parsed.state, HttpParseState::kOk) << c.target;
    HttpResponse resp;
    HandleRequest(ctx, parsed.request, &resp);
    ASSERT_EQ(resp.status, 200) << c.target << ": " << resp.body;
    EXPECT_EQ(ReadFile(out), resp.body) << c.command;
  }
  std::remove(out.c_str());
}

// ---------------------------------------------------------------------
// Sharded scans and merge.

const char kShardCommon[] =
    "--domain banks --attr phone --entities 300 --scale 0.05 --seed 3 ";

TEST(WsdctlTest, ShardScanRejectsBadSpecsWithUsageError) {
  SKIP_WITHOUT_CLI();
  const std::string snap =
      (fs::temp_directory_path() / "wsdctl_badshard.wsdsnap").string();
  std::remove(snap.c_str());
  for (const char* spec : {"0/4", "5/4", "a/b", "1/0", "4", "1//4", ""}) {
    EXPECT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard '" +
                     spec + "' --out=" + snap),
              2)
        << spec;
    EXPECT_FALSE(fs::exists(snap)) << spec;
  }
  // A shard scan without --out has nowhere to put the slice.
  EXPECT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard 1/4"), 2);
}

TEST(WsdctlTest, ShardScanUnwritableOutFailsWithoutPartialFile) {
  SKIP_WITHOUT_CLI();
  const std::string out = "/nonexistent-dir/shard.wsdsnap";
  EXPECT_EQ(RunCli(std::string("scan ") + kShardCommon +
                   "--shard 1/4 --out=" + out),
            1);
  EXPECT_FALSE(fs::exists(out));
}

TEST(WsdctlTest, ShardScanMergeMatchesMonolithicByteForByte) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_shards").string();
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));

  std::string shard_paths;
  for (int i = 1; i <= 2; ++i) {
    const std::string path = dir + "/shard" + std::to_string(i) + ".wsdsnap";
    ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard " +
                     std::to_string(i) + "/2 --out=" + path),
              0);
    shard_paths += path + " ";
  }
  const std::string merged = dir + "/merged.wsdsnap";
  ASSERT_EQ(RunCli("merge " + shard_paths + "--out=" + merged), 0);

  const std::string mono = dir + "/mono.wsdsnap";
  ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon +
                   "--canonical --out=" + mono),
            0);
  EXPECT_EQ(ReadFile(merged), ReadFile(mono))
      << "merged shards must be bit-identical to the monolithic scan";
  fs::remove_all(dir);
}

TEST(WsdctlTest, MergeRejectsMismatchedAndIncompleteShards) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_badmerge").string();
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));

  const std::string a = dir + "/a.wsdsnap";  // seed 3, shard 1/2
  const std::string b = dir + "/b.wsdsnap";  // seed 4, shard 2/2
  ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon +
                   "--shard 1/2 --out=" + a),
            0);
  ASSERT_EQ(RunCli("scan --domain banks --attr phone --entities 300 "
                   "--scale 0.05 --seed 4 --shard 2/2 --out=" +
                   b),
            0);

  const std::string out = dir + "/merged.wsdsnap";
  // Same shard layout, different provenance (seed): refused.
  EXPECT_EQ(RunCli("merge " + a + " " + b + " --out=" + out), 1);
  EXPECT_FALSE(fs::exists(out));
  // Incomplete shard set: refused.
  EXPECT_EQ(RunCli("merge " + a + " --out=" + out), 1);
  EXPECT_FALSE(fs::exists(out));
  // Duplicate slot: refused.
  EXPECT_EQ(RunCli("merge " + a + " " + a + " --out=" + out), 1);
  EXPECT_FALSE(fs::exists(out));
  // Unreadable input: refused, and stderr names the file.
  const std::string missing = dir + "/nope.wsdsnap";
  const std::string err = dir + "/stderr.txt";
  EXPECT_EQ(RunCli("merge " + a + " " + missing + " --out=" + out, err), 1);
  EXPECT_FALSE(fs::exists(out));
  EXPECT_NE(ReadFile(err).find(missing), std::string::npos) << ReadFile(err);
  // No inputs / no destination: usage errors.
  EXPECT_EQ(RunCli("merge --out=" + out), 2);
  EXPECT_EQ(RunCli("merge " + a), 2);
  fs::remove_all(dir);
}

TEST(WsdctlTest, MergeInstallsIntoArtifactStoreForWarmStudies) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_merge_art").string();
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  std::string shard_paths;
  for (int i = 1; i <= 2; ++i) {
    const std::string path = dir + "/shard" + std::to_string(i) + ".wsdsnap";
    ASSERT_EQ(RunCli(std::string("scan ") + kShardCommon + "--shard " +
                     std::to_string(i) + "/2 --out=" + path),
              0);
    shard_paths += path + " ";
  }
  const std::string art = dir + "/artifacts";
  ASSERT_EQ(RunCli("merge " + shard_paths + "--artifacts=" + art), 0);

  // A warm run resolves the scan from the installed artifact via the
  // mmap fast path: zero live scans.
  const std::string warm_json = dir + "/warm.json";
  ASSERT_EQ(RunCli(std::string("spread ") + kShardCommon + "--artifacts=" +
                   art + " --metrics_out=" + warm_json),
            0);
  const std::string warm = ReadFile(warm_json);
  EXPECT_NE(warm.find("\"wsd.artifact.hits\": 1"), std::string::npos) << warm;
  EXPECT_EQ(warm.find("\"wsd.scan.runs\""), std::string::npos) << warm;
  EXPECT_NE(warm.find("\"wsd.store.mmap_loads\": 1"), std::string::npos)
      << warm;
  fs::remove_all(dir);
}

TEST(WsdctlTest, ArtifactsFlagCachesAcrossRuns) {
  SKIP_WITHOUT_CLI();
  const std::string dir =
      (fs::temp_directory_path() / "wsdctl_artifacts").string();
  const std::string cold_json =
      (fs::temp_directory_path() / "wsdctl_cold.json").string();
  const std::string warm_json =
      (fs::temp_directory_path() / "wsdctl_warm.json").string();
  fs::remove_all(dir);
  const std::string flags =
      "spread --domain banks --attr phone --entities 300 --scale 0.05 "
      "--seed 3 --artifacts=" +
      dir;
  ASSERT_EQ(RunCli(flags + " --metrics_out=" + cold_json), 0);
  const std::string cold = ReadFile(cold_json);
  EXPECT_NE(cold.find("\"wsd.scan.runs\": 1"), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"wsd.artifact.write_bytes\""), std::string::npos);

  // Second process: the scan is answered from the artifact store.
  ASSERT_EQ(RunCli(flags + " --metrics_out=" + warm_json), 0);
  const std::string warm = ReadFile(warm_json);
  EXPECT_NE(warm.find("\"wsd.artifact.hits\": 1"), std::string::npos) << warm;
  EXPECT_EQ(warm.find("\"wsd.scan.runs\""), std::string::npos) << warm;
  fs::remove_all(dir);
  std::remove(cold_json.c_str());
  std::remove(warm_json.c_str());
}

}  // namespace
}  // namespace wsd
