#include "graph/components.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "graph/union_find.h"
#include "util/metrics.h"

namespace wsd {

namespace {

// Builds the union-find over the graph's edges. With a pool of >= 2
// workers, each shard runs its own union-find over a contiguous entity
// range and the shards are merged at the end: unioning every touched
// node with its shard-local root reproduces exactly the equivalence
// relation of the serial pass (component membership is independent of
// union order), so callers see bit-identical results at any thread
// count. Merge cost is O(shards * num_sites * α), negligible next to
// the O(E) edge scan it parallelizes.
UnionFind BuildEdgeUnionFind(const BipartiteGraph& graph, ThreadPool* pool) {
  const uint32_t n_ent = graph.num_entities();
  UnionFind uf(graph.num_nodes());
  const size_t workers = pool != nullptr ? pool->num_threads() : 1;
  if (workers < 2 || n_ent == 0) {
    for (uint32_t e = 0; e < n_ent; ++e) {
      for (uint32_t s : graph.SitesOf(e)) uf.Union(e, n_ent + s);
    }
    return uf;
  }

  static Counter& shard_counter =
      MetricsRegistry::Global().GetCounter("wsd.graph.component_shards");
  static Gauge& threads_gauge =
      MetricsRegistry::Global().GetGauge("wsd.graph.threads");
  const size_t num_shards = std::min<size_t>(workers, n_ent);
  const size_t chunk = (n_ent + num_shards - 1) / num_shards;
  std::vector<std::unique_ptr<UnionFind>> shards(num_shards);
  for (size_t sh = 0; sh < num_shards; ++sh) {
    pool->Submit([&graph, &shards, sh, chunk, n_ent] {
      const uint32_t lo = static_cast<uint32_t>(sh * chunk);
      const uint32_t hi =
          std::min<uint32_t>(n_ent, static_cast<uint32_t>(lo + chunk));
      auto local = std::make_unique<UnionFind>(graph.num_nodes());
      for (uint32_t e = lo; e < hi; ++e) {
        for (uint32_t s : graph.SitesOf(e)) local->Union(e, n_ent + s);
      }
      shards[sh] = std::move(local);
    });
  }
  pool->Wait();
  shard_counter.Increment(num_shards);
  threads_gauge.Set(static_cast<double>(workers));

  for (size_t sh = 0; sh < num_shards; ++sh) {
    UnionFind& local = *shards[sh];
    const uint32_t lo = static_cast<uint32_t>(sh * chunk);
    const uint32_t hi =
        std::min<uint32_t>(n_ent, static_cast<uint32_t>(lo + chunk));
    for (uint32_t e = lo; e < hi; ++e) {
      const uint32_t root = local.Find(e);
      if (root != e) uf.Union(e, root);
    }
    for (uint32_t s = 0; s < graph.num_sites(); ++s) {
      const uint32_t node = n_ent + s;
      const uint32_t root = local.Find(node);
      if (root != node) uf.Union(node, root);
    }
  }
  return uf;
}

}  // namespace

ComponentSummary AnalyzeComponents(const BipartiteGraph& graph,
                                   ThreadPool* pool) {
  const ScopedTimer phase_timer(
      MetricsRegistry::Global().GetHistogram("wsd.graph.components_seconds"));
  const uint32_t n_ent = graph.num_entities();
  UnionFind uf = BuildEdgeUnionFind(graph, pool);

  // Tally entities and sites per root, skipping zero-degree nodes.
  std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>> tally;
  for (uint32_t e = 0; e < n_ent; ++e) {
    if (graph.EntityDegree(e) == 0) continue;
    ++tally[uf.Find(e)].first;
  }
  for (uint32_t s = 0; s < graph.num_sites(); ++s) {
    if (graph.SiteDegree(s) == 0) continue;
    ++tally[uf.Find(n_ent + s)].second;
  }

  ComponentSummary out;
  out.num_components = static_cast<uint32_t>(tally.size());
  for (const auto& [root, counts] : tally) {
    // Strict (entities, sites) ordering so the winner does not depend on
    // map iteration order, which varies with the union schedule.
    if (counts.first > out.largest_component_entities ||
        (counts.first == out.largest_component_entities &&
         counts.second > out.largest_component_sites)) {
      out.largest_component_entities = counts.first;
      out.largest_component_sites = counts.second;
    }
  }
  if (graph.num_covered_entities() > 0) {
    out.largest_component_entity_fraction =
        static_cast<double>(out.largest_component_entities) /
        static_cast<double>(graph.num_covered_entities());
  }
  return out;
}

ComponentLabels LabelComponents(const BipartiteGraph& graph,
                                ThreadPool* pool) {
  const uint32_t n_ent = graph.num_entities();
  UnionFind uf = BuildEdgeUnionFind(graph, pool);

  // Labels are assigned in first-seen node order, so they are identical
  // whatever roots the union schedule happened to pick.
  ComponentLabels out;
  out.label.assign(graph.num_nodes(), ComponentLabels::kNoComponent);
  std::unordered_map<uint32_t, uint32_t> root_to_label;
  // (entities, sites) per label.
  std::vector<std::pair<uint32_t, uint32_t>> size_of_label;
  for (uint32_t node = 0; node < graph.num_nodes(); ++node) {
    const bool has_edges = node < n_ent
                               ? graph.EntityDegree(node) > 0
                               : graph.SiteDegree(node - n_ent) > 0;
    if (!has_edges) continue;
    const uint32_t root = uf.Find(node);
    auto [it, inserted] =
        root_to_label.emplace(root, static_cast<uint32_t>(
                                        root_to_label.size()));
    if (inserted) size_of_label.emplace_back(0, 0);
    out.label[node] = it->second;
    if (node < n_ent) {
      ++size_of_label[it->second].first;
    } else {
      ++size_of_label[it->second].second;
    }
  }
  out.num_components = static_cast<uint32_t>(root_to_label.size());
  // The largest by (entities, sites), as AnalyzeComponents orders them;
  // an exact tie goes to the first-seen label.
  for (uint32_t l = 0; l < size_of_label.size(); ++l) {
    if (out.largest_label == ComponentLabels::kNoComponent ||
        size_of_label[l] > size_of_label[out.largest_label]) {
      out.largest_label = l;
    }
  }
  return out;
}

}  // namespace wsd
