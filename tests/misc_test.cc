// Coverage for the remaining corners: name generation, logging levels,
// page sizing, environment- and flag-driven options, diameter budget
// exhaustion, and browse-vs-search month semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/study.h"
#include "corpus/page_gen.h"
#include "entity/name_gen.h"
#include "graph/diameter.h"
#include "traffic/traffic_log.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace wsd {
namespace {

// ---------- name generation ----------

TEST(NameGenTest, KindsProduceDistinctSuffixFamilies) {
  Rng rng(1);
  bool saw_school_word = false;
  for (int i = 0; i < 50; ++i) {
    const std::string name = GenerateName(rng, NameKind::kSchool);
    if (name.find("School") != std::string::npos ||
        name.find("Academy") != std::string::npos ||
        name.find("Preparatory") != std::string::npos) {
      saw_school_word = true;
    }
  }
  EXPECT_TRUE(saw_school_word);
}

TEST(NameGenTest, BookTitlesHaveTheStyle) {
  Rng rng(2);
  const std::string title = GenerateName(rng, NameKind::kBook);
  EXPECT_EQ(title.find("The "), 0u);
  EXPECT_NE(title.find(" of "), std::string::npos);
}

TEST(NameGenTest, HostFromNameIsUrlSafe) {
  const std::string host =
      HostFromName("Mario's Grill & Bar!", "Twin Falls");
  for (char c : host) {
    EXPECT_TRUE(IsAlnum(c) || c == '-' || c == '.') << host;
  }
  EXPECT_TRUE(host.ends_with(".com"));
  EXPECT_EQ(host, "mariosgrillbar-twinfalls.com");
}

TEST(NameGenTest, PersonNamesAreTwoWords) {
  Rng rng(3);
  const std::string name = GeneratePersonName(rng);
  EXPECT_NE(name.find(' '), std::string::npos);
}

// ---------- logging ----------

TEST(LoggingTest, LevelGateIsSettable) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emitting below the gate must be a no-op (no crash, no output check
  // needed — this exercises the early-return path).
  WSD_LOG(kDebug) << "suppressed";
  WSD_LOG(kInfo) << "suppressed";
  SetLogLevel(original);
}

// ---------- page sizing ----------

TEST(PageGenSizingTest, HeadSitesUseBiggerPages) {
  SyntheticWeb::Config config;
  config.domain = Domain::kRestaurants;
  config.attr = Attribute::kPhone;
  config.num_entities = 3000;
  config.seed = 7;
  SpreadParams params =
      DefaultSpreadParams(Domain::kRestaurants, Attribute::kPhone);
  params.num_sites = 300;
  config.spread = params;
  config.page_options.mentions_per_page_head = 20;
  config.page_options.mentions_per_page_tail = 2;
  config.page_options.head_site_threshold = 100;
  auto web = SyntheticWeb::Create(config);
  ASSERT_TRUE(web.ok());

  // Site 0 is far above the threshold; its pages ~= mentions/20.
  const uint32_t head_mentions = web->model().site_size(0);
  ASSERT_GT(head_mentions, 200u);
  EXPECT_EQ(web->generator().CountPages(0), (head_mentions + 19) / 20);

  // Find a small tail site; its pages ~= mentions/2.
  for (SiteId s = web->num_hosts(); s-- > 0;) {
    const uint32_t mentions = web->model().site_size(s);
    if (mentions > 0 && mentions < 100) {
      EXPECT_EQ(web->generator().CountPages(s), (mentions + 1) / 2);
      break;
    }
  }
}

// ---------- StudyOptions::FromEnv ----------

TEST(StudyOptionsEnvTest, ReadsAndValidatesEnvironment) {
  setenv("WSD_SCALE", "0.5", 1);
  setenv("WSD_ENTITIES", "777", 1);
  setenv("WSD_SEED", "99", 1);
  setenv("WSD_THREADS", "3", 1);
  StudyOptions options = StudyOptions::FromEnv();
  EXPECT_DOUBLE_EQ(options.scale, 0.5);
  EXPECT_EQ(options.num_entities, 777u);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.threads, 3u);

  setenv("WSD_SCALE", "-2", 1);  // invalid: falls back to 1.0
  EXPECT_DOUBLE_EQ(StudyOptions::FromEnv().scale, 1.0);
  setenv("WSD_SCALE", "bogus", 1);  // unparseable: default kept
  EXPECT_DOUBLE_EQ(StudyOptions::FromEnv().scale, 1.0);

  unsetenv("WSD_SCALE");
  unsetenv("WSD_ENTITIES");
  unsetenv("WSD_SEED");
  unsetenv("WSD_THREADS");
}

// ---------- StudyOptions::FromFlags ----------

StatusOr<StudyOptions> OptionsFromArgs(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return StudyOptions::FromFlags(
      FlagParser(static_cast<int>(argv.size()), argv.data()));
}

TEST(StudyOptionsFlagsTest, FlagsBeatEnvAndMalformedValuesAreRejected) {
  setenv("WSD_ENTITIES", "777", 1);
  setenv("WSD_SEED", "99", 1);
  setenv("WSD_SCALE", "0.5", 1);
  setenv("WSD_THREADS", "3", 1);

  auto env_only = OptionsFromArgs({});
  ASSERT_TRUE(env_only.ok()) << env_only.status();
  EXPECT_EQ(env_only->num_entities, 777u);
  EXPECT_EQ(env_only->seed, 99u);
  EXPECT_DOUBLE_EQ(env_only->scale, 0.5);
  EXPECT_EQ(env_only->threads, 3u);

  auto flags = OptionsFromArgs({"--entities", "400", "--seed=3",
                                "--scale", "0.05", "--threads", "2",
                                "--artifacts=/tmp/wsd_art"});
  ASSERT_TRUE(flags.ok()) << flags.status();
  EXPECT_EQ(flags->num_entities, 400u);
  EXPECT_EQ(flags->seed, 3u);
  EXPECT_DOUBLE_EQ(flags->scale, 0.05);
  EXPECT_EQ(flags->threads, 2u);
  EXPECT_EQ(flags->artifact_dir, "/tmp/wsd_art");

  // --threads 0 still means hardware concurrency.
  auto zero = OptionsFromArgs({"--threads", "0"});
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->threads, 0u);

  for (const auto& [flag, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"entities", "4OO"},
           {"entities", "4294967296"},
           {"entities", "-1"},
           {"seed", "3x"},
           {"seed", "18446744073709551616"},
           {"scale", "0,05"},
           {"scale", "0"},
           {"scale", "-0.5"},
           {"scale", "inf"},
           {"scale", "nan"},
           {"threads", "4294967296"},
           {"threads", "two"},
           {"threads", ""}}) {
    const auto parsed = OptionsFromArgs({"--" + flag + "=" + value});
    ASSERT_FALSE(parsed.ok()) << flag << "=" << value;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status();
    // The message names the flag and the value.
    EXPECT_NE(parsed.status().message().find("--" + flag), std::string::npos)
        << parsed.status();
    EXPECT_NE(parsed.status().message().find("'" + value + "'"),
              std::string::npos)
        << parsed.status();
  }

  unsetenv("WSD_ENTITIES");
  unsetenv("WSD_SEED");
  unsetenv("WSD_SCALE");
  unsetenv("WSD_THREADS");
}

// ---------- diameter budget ----------

TEST(DiameterBudgetTest, ExhaustionReturnsLowerBoundInexact) {
  // A long chain: the double sweep certifies its diameter, so even
  // max_bfs=4 (two sweeps, the midpoint BFS and the root) stays exact.
  std::vector<HostRecord> hosts;
  for (int s = 0; s < 30; ++s) {
    HostRecord rec;
    rec.host = "s" + std::to_string(s) + ".com";
    rec.entities = {{static_cast<EntityId>(s), 1},
                    {static_cast<EntityId>(s + 1), 1}};
    hosts.push_back(rec);
  }
  const auto graph =
      BipartiteGraph::FromHostTable(HostEntityTable(std::move(hosts)), 31);
  const auto full = ExactDiameter(graph);
  EXPECT_TRUE(full.exact);
  EXPECT_EQ(full.diameter, 60u);  // path of 31 entities + 30 sites

  const auto budgeted = ExactDiameter(graph, /*max_bfs=*/4);
  // Double sweep already finds the true diameter on a path; the point is
  // the budget path must not crash and the bound must be <= the truth.
  EXPECT_LE(budgeted.diameter, full.diameter);

  // An even cycle, which the double sweep cannot certify: site s holds
  // entities s and s+1 (mod 30), 60 nodes, diameter 30. Its fringe needs
  // 29 eccentricities after the four sweeps, so a budget of 5 or 6 runs
  // out inside the fringe loop.
  std::vector<HostRecord> ring;
  for (int s = 0; s < 30; ++s) {
    const auto [lo, hi] = std::minmax({s, (s + 1) % 30});
    HostRecord rec;
    rec.host = "r" + std::to_string(s) + ".com";
    rec.entities = {{static_cast<EntityId>(lo), 1},
                    {static_cast<EntityId>(hi), 1}};
    ring.push_back(rec);
  }
  const auto cycle =
      BipartiteGraph::FromHostTable(HostEntityTable(std::move(ring)), 30);
  const auto cycle_full = ExactDiameter(cycle);
  EXPECT_TRUE(cycle_full.exact);
  EXPECT_EQ(cycle_full.diameter, 30u);
  EXPECT_EQ(cycle_full.bfs_runs, 33u);
  EXPECT_EQ(AllPairsDiameter(cycle).bfs_runs, 60u);
  ThreadPool pool(2);
  for (uint32_t max_bfs : {5u, 6u}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const auto cut = ExactDiameter(cycle, max_bfs, p);
      EXPECT_FALSE(cut.exact) << "max_bfs " << max_bfs;
      EXPECT_EQ(cut.bfs_runs, max_bfs);
      EXPECT_LE(cut.diameter, 30u);
    }
  }
}

// ---------- browse months ----------

TEST(TrafficChannelTest, SearchRepeatsStayInMonthBrowseSpread) {
  TrafficSiteParams params = DefaultTrafficParams(TrafficSite::kYelp);
  params.num_entities = 200;
  const SitePopulation pop = BuildPopulation(params, 3);
  TrafficLogOptions options;
  options.repeat_visit_rate = 3.0;  // many repeats to observe months
  const TrafficLogGenerator generator(pop, options, 5);

  // Search: all events of one cookie share a month.
  std::map<uint64_t, std::set<uint8_t>> search_months;
  generator.Generate(TrafficChannel::kSearch, [&](const VisitEvent& e) {
    search_months[e.cookie].insert(e.month);
  });
  for (const auto& [cookie, months] : search_months) {
    EXPECT_EQ(months.size(), 1u);
  }

  // Browse: repeat-heavy cookies hit multiple months.
  std::map<uint64_t, std::set<uint8_t>> browse_months;
  generator.Generate(TrafficChannel::kBrowse, [&](const VisitEvent& e) {
    browse_months[e.cookie].insert(e.month);
  });
  size_t multi_month = 0;
  for (const auto& [cookie, months] : browse_months) {
    if (months.size() > 1) ++multi_month;
  }
  EXPECT_GT(multi_month, browse_months.size() / 4);
}

}  // namespace
}  // namespace wsd
