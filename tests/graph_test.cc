#include <gtest/gtest.h>

#include "graph/bipartite.h"
#include "graph/components.h"
#include "graph/diameter.h"
#include "graph/robustness.h"
#include "graph/union_find.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wsd {
namespace {

// Builds a host table from explicit (host, {entities}) pairs.
HostEntityTable MakeTable(
    const std::vector<std::vector<EntityId>>& site_entities) {
  std::vector<HostRecord> hosts;
  for (size_t s = 0; s < site_entities.size(); ++s) {
    HostRecord rec;
    rec.host = "site" + std::to_string(s) + ".com";
    for (EntityId e : site_entities[s]) rec.entities.push_back({e, 1});
    std::sort(rec.entities.begin(), rec.entities.end(),
              [](const EntityPages& a, const EntityPages& b) {
                return a.entity < b.entity;
              });
    hosts.push_back(std::move(rec));
  }
  return HostEntityTable(std::move(hosts));
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.Find(0), uf.Find(1));
  EXPECT_NE(uf.Find(0), uf.Find(2));
  EXPECT_EQ(uf.SizeOf(0), 2u);
  uf.Union(0, 2);
  EXPECT_EQ(uf.SizeOf(3), 4u);
  EXPECT_EQ(uf.num_sets(), 2u);
}

TEST(BipartiteGraphTest, CsrBothDirectionsConsistent) {
  // sites: 0={0,1}, 1={1,2}, 2={3}
  const auto table = MakeTable({{0, 1}, {1, 2}, {3}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  EXPECT_EQ(graph.num_entities(), 5u);
  EXPECT_EQ(graph.num_sites(), 3u);
  EXPECT_EQ(graph.num_edges(), 5u);
  EXPECT_EQ(graph.num_covered_entities(), 4u);  // entity 4 uncovered

  EXPECT_EQ(graph.EntityDegree(1), 2u);
  EXPECT_EQ(graph.EntityDegree(4), 0u);
  EXPECT_EQ(graph.SiteDegree(0), 2u);
  auto sites_of_1 = graph.SitesOf(1);
  EXPECT_EQ(std::set<uint32_t>(sites_of_1.begin(), sites_of_1.end()),
            (std::set<uint32_t>{0, 1}));
  auto entities_of_1 = graph.EntitiesOf(1);
  EXPECT_EQ(std::set<uint32_t>(entities_of_1.begin(), entities_of_1.end()),
            (std::set<uint32_t>{1, 2}));
  EXPECT_DOUBLE_EQ(graph.AvgSitesPerEntity(), 5.0 / 4.0);
}

TEST(ComponentsTest, CountsAndLargest) {
  // Component A: sites 0,1 entities 0,1,2. Component B: site 2, entity 3.
  const auto table = MakeTable({{0, 1}, {1, 2}, {3}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  const auto summary = AnalyzeComponents(graph);
  EXPECT_EQ(summary.num_components, 2u);
  EXPECT_EQ(summary.largest_component_entities, 3u);
  EXPECT_EQ(summary.largest_component_sites, 2u);
  EXPECT_DOUBLE_EQ(summary.largest_component_entity_fraction, 3.0 / 4.0);
}

TEST(ComponentsTest, LabelsMatchSummary) {
  const auto table = MakeTable({{0, 1}, {1, 2}, {3}, {}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  const auto labels = LabelComponents(graph);
  EXPECT_EQ(labels.num_components, 2u);
  // Zero-degree entity 4 and empty site 3 are unlabeled.
  EXPECT_EQ(labels.label[4], ComponentLabels::kNoComponent);
  EXPECT_EQ(labels.label[graph.num_entities() + 3],
            ComponentLabels::kNoComponent);
  // Entities 0,1,2 share the largest label.
  EXPECT_EQ(labels.label[0], labels.largest_label);
  EXPECT_EQ(labels.label[1], labels.largest_label);
  EXPECT_EQ(labels.label[2], labels.largest_label);
  EXPECT_NE(labels.label[3], labels.largest_label);
}

TEST(DiameterTest, PathGraphExact) {
  // entity0 - site0 - entity1 - site1 - entity2: diameter 4.
  const auto table = MakeTable({{0, 1}, {1, 2}});
  const auto graph = BipartiteGraph::FromHostTable(table, 3);
  EXPECT_EQ(ExactDiameter(graph).diameter, 4u);
  EXPECT_EQ(AllPairsDiameter(graph).diameter, 4u);
}

TEST(DiameterTest, StarGraphIsTwo) {
  const auto table = MakeTable({{0, 1, 2, 3, 4}});
  const auto graph = BipartiteGraph::FromHostTable(table, 5);
  EXPECT_EQ(ExactDiameter(graph).diameter, 2u);
}

TEST(DiameterTest, UsesLargestComponentOnly) {
  // Giant: path of length 4; separate pocket: single site/entity.
  const auto table = MakeTable({{0, 1}, {1, 2}, {9}});
  const auto graph = BipartiteGraph::FromHostTable(table, 10);
  const auto result = ExactDiameter(graph);
  EXPECT_EQ(result.diameter, 4u);
  EXPECT_EQ(result.component_nodes, 5u);
}

// Property: iFUB agrees with all-pairs BFS on random graphs.
class DiameterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiameterPropertyTest, IfubMatchesAllPairs) {
  Rng rng(GetParam());
  const uint32_t sites = 20 + rng.Index(30);
  const uint32_t entities = 30 + rng.Index(50);
  std::vector<std::vector<EntityId>> table(sites);
  // Sparse random bipartite graph (possibly disconnected).
  const uint32_t edges = entities + rng.Index(entities);
  for (uint32_t i = 0; i < edges; ++i) {
    table[rng.Index(sites)].push_back(
        static_cast<EntityId>(rng.Index(entities)));
  }
  for (auto& v : table) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  const auto graph = BipartiteGraph::FromHostTable(MakeTable(table),
                                                   entities);
  const auto fast = ExactDiameter(graph);
  const auto slow = AllPairsDiameter(graph);
  EXPECT_EQ(fast.diameter, slow.diameter) << "seed " << GetParam();
  EXPECT_TRUE(fast.exact);
  EXPECT_LE(fast.bfs_runs, slow.bfs_runs);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DiameterPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(RobustnessTest, RemovingTheOnlyHubDisconnects) {
  // Hub site covers everything; satellites cover one entity each.
  const auto table = MakeTable({{0, 1, 2, 3}, {0}, {1}});
  const auto graph = BipartiteGraph::FromHostTable(table, 4);
  const auto sweep = RobustnessSweep(graph, 1);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep[0].largest_component_entity_fraction, 1.0);
  // After removing the hub: entities 0 and 1 survive on their satellites
  // (two singleton components); 2 and 3 are orphaned.
  EXPECT_DOUBLE_EQ(sweep[1].largest_component_entity_fraction, 0.25);
}

TEST(RobustnessTest, SweepIsMonotoneNonIncreasingOnRealisticGraphs) {
  Rng rng(5);
  // Random graph with a strong head: site s covers entities with
  // probability ~ 1/(s+1).
  const uint32_t sites = 40, entities = 200;
  std::vector<std::vector<EntityId>> table(sites);
  for (uint32_t s = 0; s < sites; ++s) {
    for (uint32_t e = 0; e < entities; ++e) {
      if (rng.Bernoulli(1.0 / (s + 2.0))) table[s].push_back(e);
    }
  }
  const auto graph = BipartiteGraph::FromHostTable(MakeTable(table),
                                                   entities);
  const auto sweep = RobustnessSweep(graph, 10);
  ASSERT_EQ(sweep.size(), 11u);
  for (size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_LE(sweep[k].largest_component_entity_fraction,
              sweep[k - 1].largest_component_entity_fraction + 1e-12);
  }
}

// Regression for the component-accounting bug: surviving sites that end
// up with no counted entity neighbors (zero-degree sites) must count as
// singleton components instead of silently vanishing.
TEST(RobustnessTest, CountsSurvivingSingletonSiteComponents) {
  // site0 covers e0,e1; site1 matched nothing (zero-degree).
  const auto table = MakeTable({{0, 1}, {}});
  const auto graph = BipartiteGraph::FromHostTable(table, 3);
  const auto sweep = RobustnessSweep(graph, 1);
  ASSERT_EQ(sweep.size(), 2u);
  // k=0: {e0, e1, s0} plus the singleton {s1}.
  EXPECT_EQ(sweep[0].num_components, 2u);
  EXPECT_DOUBLE_EQ(sweep[0].largest_component_entity_fraction, 1.0);
  // k=1 (s0 removed): e0 and e1 are isolated singletons, plus {s1}.
  EXPECT_EQ(sweep[1].num_components, 3u);
  EXPECT_DOUBLE_EQ(sweep[1].largest_component_entity_fraction, 0.5);
}

TEST(RobustnessTest, HubComponentCountsMatchHandComputation) {
  // Hub site covers everything; satellites cover one entity each.
  const auto table = MakeTable({{0, 1, 2, 3}, {0}, {1}});
  const auto graph = BipartiteGraph::FromHostTable(table, 4);
  const auto sweep = RobustnessSweep(graph, 1);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep[0].num_components, 1u);
  // After removing the hub: {e0,s1}, {e1,s2}, {e2}, {e3}.
  EXPECT_EQ(sweep[1].num_components, 4u);
}

// Property: the incremental reverse-deletion sweep matches the naive
// per-k recompute exactly, on random graphs that include empty sites
// and uncovered entities.
class RobustnessPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RobustnessPropertyTest, IncrementalMatchesNaive) {
  Rng rng(GetParam());
  const uint32_t sites = 5 + rng.Index(40);
  const uint32_t entities = 10 + rng.Index(80);
  std::vector<std::vector<EntityId>> table(sites);
  const uint32_t edges = rng.Index(3 * entities);
  for (uint32_t i = 0; i < edges; ++i) {
    table[rng.Index(sites)].push_back(
        static_cast<EntityId>(rng.Index(entities)));
  }
  for (auto& v : table) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  const auto graph =
      BipartiteGraph::FromHostTable(MakeTable(table), entities);
  const uint32_t max_removed = rng.Index(sites + 3);
  const auto fast = RobustnessSweep(graph, max_removed);
  const auto naive = RobustnessSweepNaive(graph, max_removed);
  ASSERT_EQ(fast.size(), naive.size()) << "seed " << GetParam();
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].removed_sites, naive[i].removed_sites);
    EXPECT_EQ(fast[i].num_components, naive[i].num_components)
        << "seed " << GetParam() << " k=" << i;
    EXPECT_DOUBLE_EQ(fast[i].largest_component_entity_fraction,
                     naive[i].largest_component_entity_fraction)
        << "seed " << GetParam() << " k=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, RobustnessPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

// Builds the random graph used by the serial-vs-parallel equivalence
// tests below.
BipartiteGraph RandomGraph(uint64_t seed) {
  Rng rng(seed);
  const uint32_t sites = 20 + rng.Index(30);
  const uint32_t entities = 30 + rng.Index(50);
  std::vector<std::vector<EntityId>> table(sites);
  const uint32_t edges = entities + rng.Index(2 * entities);
  for (uint32_t i = 0; i < edges; ++i) {
    table[rng.Index(sites)].push_back(
        static_cast<EntityId>(rng.Index(entities)));
  }
  for (auto& v : table) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return BipartiteGraph::FromHostTable(MakeTable(table), entities);
}

// Parallel component labeling must be bit-identical to the serial path
// at every thread count.
TEST(ComponentsTest, ParallelMatchesSerial) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto graph = RandomGraph(seed);
    const auto serial_summary = AnalyzeComponents(graph);
    const auto serial_labels = LabelComponents(graph);
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto summary = AnalyzeComponents(graph, &pool);
      EXPECT_EQ(summary.num_components, serial_summary.num_components)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(summary.largest_component_entities,
                serial_summary.largest_component_entities);
      EXPECT_EQ(summary.largest_component_sites,
                serial_summary.largest_component_sites);
      EXPECT_DOUBLE_EQ(summary.largest_component_entity_fraction,
                       serial_summary.largest_component_entity_fraction);
      const auto labels = LabelComponents(graph, &pool);
      EXPECT_EQ(labels.num_components, serial_labels.num_components);
      EXPECT_EQ(labels.largest_label, serial_labels.largest_label);
      EXPECT_EQ(labels.label, serial_labels.label)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// iFUB must report the same diameter, exactness, component size and
// eccentricity count with any pool: the pool only labels components.
TEST(DiameterTest, ParallelMatchesSerial) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto graph = RandomGraph(seed);
    const auto serial = ExactDiameter(graph);
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto parallel = ExactDiameter(graph, 20000, &pool);
      EXPECT_EQ(parallel.diameter, serial.diameter)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.exact, serial.exact);
      EXPECT_EQ(parallel.component_nodes, serial.component_nodes);
      EXPECT_EQ(parallel.bfs_runs, serial.bfs_runs);
    }
  }
}

// Random bipartite graph of 1,000-3,000 nodes, a configuration model:
// three stubs per site are shuffled and paired up, one entity per pair,
// so sites have degree 3 and entities degree 2 (a pair landing on one
// site gives one edge). Nearly uniform eccentricities make iFUB walk
// fringe levels far wider than one 64-source chunk.
BipartiteGraph WideFringeGraph(uint64_t seed) {
  Rng rng(seed);
  const uint32_t sites = 400 + static_cast<uint32_t>(rng.Index(800));
  std::vector<uint32_t> stubs;
  for (uint32_t s = 0; s < sites; ++s) stubs.insert(stubs.end(), 3, s);
  for (size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[rng.Index(i)]);
  }
  const uint32_t entities = static_cast<uint32_t>(stubs.size() / 2);
  std::vector<std::vector<EntityId>> table(sites);
  for (uint32_t e = 0; e < entities; ++e) {
    table[stubs[2 * e]].push_back(e);
    if (stubs[2 * e + 1] != stubs[2 * e]) table[stubs[2 * e + 1]].push_back(e);
  }
  return BipartiteGraph::FromHostTable(MakeTable(table), entities);
}

// Chunks cross fringe levels and level boundaries: the diameter must
// still match all-pairs BFS, and no pool may change the count.
TEST(DiameterTest, WideFringeMatchesAllPairs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const auto graph = WideFringeGraph(seed);
    const auto slow = AllPairsDiameter(graph);
    const auto serial = ExactDiameter(graph);
    EXPECT_EQ(serial.diameter, slow.diameter) << "seed " << seed;
    EXPECT_TRUE(serial.exact);
    EXPECT_EQ(serial.component_nodes, slow.component_nodes);
    // The double sweep, the midpoint and the root take four; at least
    // three chunks follow.
    EXPECT_GT(serial.bfs_runs, 4u + 128u) << "seed " << seed;
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto parallel = ExactDiameter(graph, 20000, &pool);
      EXPECT_EQ(parallel.diameter, slow.diameter)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(parallel.exact);
      EXPECT_EQ(parallel.component_nodes, slow.component_nodes);
      EXPECT_EQ(parallel.bfs_runs, serial.bfs_runs);
    }
  }
}

// Hub-dominated graph shaped like a study's: each edge picks its site
// with Zipf weight 1/(s+1), so a few hub sites cover many entities and a
// long tail of sites covers a few each. Most entities sit on one site
// only, 5% are uncovered, and small components split off the tail. The
// sweeps bound most nodes of such a graph, so the fringe loop skips
// most of them.
BipartiteGraph HubGraph(uint64_t seed) {
  Rng rng(seed);
  const uint32_t entities = 150 + static_cast<uint32_t>(rng.Index(250));
  const uint32_t sites = entities / 2;
  std::vector<double> cumulative(sites);
  double total = 0.0;
  for (uint32_t s = 0; s < sites; ++s) {
    total += 1.0 / (s + 1.0);
    cumulative[s] = total;
  }
  std::vector<std::vector<EntityId>> table(sites);
  for (uint32_t e = 0; e < entities; ++e) {
    if (rng.Bernoulli(0.05)) continue;
    const uint32_t degree =
        rng.Bernoulli(0.7) ? 1 : 1 + static_cast<uint32_t>(rng.Index(8));
    for (uint32_t k = 0; k < degree; ++k) {
      const auto it = std::lower_bound(cumulative.begin(), cumulative.end(),
                                       rng.NextDouble() * total);
      table[std::min<size_t>(it - cumulative.begin(), sites - 1)]
          .push_back(e);
    }
  }
  for (auto& v : table) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return BipartiteGraph::FromHostTable(MakeTable(table), entities);
}

// The sweep bounds skip only eccentricities that cannot raise the lower
// bound: on study-shaped graphs the diameter, exactness and component
// match all-pairs BFS, no pool changes the count, and a budget leaves a
// lower bound that is exact whenever the budget covers the full run.
TEST(DiameterTest, SweepBoundsMatchAllPairsOnHubGraphs) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const auto graph = HubGraph(seed);
    const auto slow = AllPairsDiameter(graph);
    const auto serial = ExactDiameter(graph);
    EXPECT_EQ(serial.diameter, slow.diameter) << "seed " << seed;
    EXPECT_TRUE(serial.exact);
    EXPECT_EQ(serial.component_nodes, slow.component_nodes);
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto parallel = ExactDiameter(graph, 20000, &pool);
      EXPECT_EQ(parallel.diameter, serial.diameter)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(parallel.exact);
      EXPECT_EQ(parallel.component_nodes, serial.component_nodes);
      EXPECT_EQ(parallel.bfs_runs, serial.bfs_runs);
    }
    for (uint32_t max_bfs : {5u, 8u, 40u, serial.bfs_runs}) {
      const auto cut = ExactDiameter(graph, max_bfs);
      EXPECT_LE(cut.diameter, slow.diameter)
          << "seed " << seed << " max_bfs " << max_bfs;
      EXPECT_EQ(cut.component_nodes, slow.component_nodes);
      if (cut.exact) {
        EXPECT_EQ(cut.diameter, slow.diameter)
            << "seed " << seed << " max_bfs " << max_bfs;
        // The sweeps (four, five after a fallback) run whatever the
        // budget.
        EXPECT_LE(cut.bfs_runs, std::max(max_bfs, 5u));
      } else {
        EXPECT_EQ(cut.bfs_runs, max_bfs)
            << "seed " << seed << " max_bfs " << max_bfs;
      }
    }
    EXPECT_TRUE(ExactDiameter(graph, serial.bfs_runs).exact)
        << "seed " << seed;
  }
}

// The first sweep starts at the highest-degree node; when that node's
// component does not hold most covered entities, the diameter must still
// be measured on the largest component: here a path of 8 entities beside
// a star of 6, whose site has the highest degree.
TEST(DiameterTest, HighestDegreeNodeOutsideLargestComponent) {
  std::vector<std::vector<EntityId>> table = {{0, 1, 2, 3, 4, 5}};
  for (EntityId e = 6; e < 13; ++e) table.push_back({e, e + 1});
  const auto graph = BipartiteGraph::FromHostTable(MakeTable(table), 14);
  const auto slow = AllPairsDiameter(graph);
  ASSERT_EQ(slow.diameter, 14u);
  ASSERT_EQ(slow.component_nodes, 15u);
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const auto result = ExactDiameter(graph, 20000, p);
    EXPECT_EQ(result.diameter, 14u);
    EXPECT_EQ(result.component_nodes, 15u);
    EXPECT_TRUE(result.exact);
  }
}

// Two components with three entities each: a star (1 site) and a 6-cycle
// (3 sites). Table 2 counts the cycle as the largest component, since
// components are ordered by (entities, sites), so its diameter must be
// the cycle's 3, not the star's 2.
TEST(ComponentsTest, LargestBreaksEntityTiesBySites) {
  const auto table = MakeTable({{0, 1, 2}, {3, 4}, {4, 5}, {3, 5}});
  const auto graph = BipartiteGraph::FromHostTable(table, 6);
  const auto summary = AnalyzeComponents(graph);
  EXPECT_EQ(summary.largest_component_entities, 3u);
  EXPECT_EQ(summary.largest_component_sites, 3u);
  const auto labels = LabelComponents(graph);
  EXPECT_EQ(labels.num_components, 2u);
  EXPECT_EQ(labels.largest_label, labels.label[3]);
  EXPECT_NE(labels.largest_label, labels.label[0]);
  const auto diameter = ExactDiameter(graph);
  EXPECT_EQ(diameter.diameter, 3u);
  EXPECT_EQ(diameter.component_nodes, 6u);
  EXPECT_EQ(AllPairsDiameter(graph).diameter, 3u);
}

// The parallel base-state build of the robustness sweep must emit the
// same curve as the serial path at every thread count.
TEST(RobustnessTest, ParallelMatchesSerial) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto graph = RandomGraph(seed);
    for (uint32_t max_removed : {0u, 3u, 10u}) {
      const auto serial = RobustnessSweep(graph, max_removed);
      for (size_t threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const auto parallel = RobustnessSweep(graph, max_removed, &pool);
        ASSERT_EQ(parallel.size(), serial.size())
            << "seed " << seed << " threads " << threads;
        for (size_t i = 0; i < serial.size(); ++i) {
          EXPECT_EQ(parallel[i].removed_sites, serial[i].removed_sites);
          EXPECT_EQ(parallel[i].num_components, serial[i].num_components)
              << "seed " << seed << " threads " << threads << " k=" << i;
          EXPECT_DOUBLE_EQ(parallel[i].largest_component_entity_fraction,
                           serial[i].largest_component_entity_fraction)
              << "seed " << seed << " threads " << threads << " k=" << i;
        }
      }
    }
  }
}

TEST(BipartiteGraphTest, SitesByDegreeDesc) {
  const auto table = MakeTable({{0}, {0, 1, 2}, {0, 1}});
  const auto graph = BipartiteGraph::FromHostTable(table, 3);
  const auto order = graph.SitesByDegreeDesc();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

}  // namespace
}  // namespace wsd
