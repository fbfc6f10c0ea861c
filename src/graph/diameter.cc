#include "graph/diameter.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/logging.h"
#include "util/metrics.h"

namespace wsd {

namespace {

constexpr uint32_t kUnvisited = UINT32_MAX;

// Reusable BFS workspace to avoid re-allocating per run.
struct BfsScratch {
  std::vector<uint32_t> dist;
  std::vector<uint32_t> queue;
};

template <typename Fn>
void ForEachNeighbor(const BipartiteGraph& g, uint32_t node, Fn&& fn) {
  const uint32_t n_ent = g.num_entities();
  if (node < n_ent) {
    for (uint32_t s : g.SitesOf(node)) fn(n_ent + s);
  } else {
    for (uint32_t e : g.EntitiesOf(node - n_ent)) fn(e);
  }
}

// Full BFS from `source`; returns (eccentricity, farthest node).
std::pair<uint32_t, uint32_t> Bfs(const BipartiteGraph& g, uint32_t source,
                                  BfsScratch& scratch) {
  scratch.dist.assign(g.num_nodes(), kUnvisited);
  scratch.queue.clear();
  scratch.queue.push_back(source);
  scratch.dist[source] = 0;
  uint32_t farthest = source;
  uint32_t ecc = 0;
  for (size_t head = 0; head < scratch.queue.size(); ++head) {
    const uint32_t u = scratch.queue[head];
    const uint32_t du = scratch.dist[u];
    if (du > ecc) {
      ecc = du;
      farthest = u;
    }
    ForEachNeighbor(g, u, [&](uint32_t v) {
      if (scratch.dist[v] == kUnvisited) {
        scratch.dist[v] = du + 1;
        scratch.queue.push_back(v);
      }
    });
  }
  return {ecc, farthest};
}

uint64_t Degree(const BipartiteGraph& g, uint32_t node) {
  return node < g.num_entities() ? g.EntityDegree(node)
                                 : g.SiteDegree(node - g.num_entities());
}

// First node of maximum degree among the nodes `in_scope` admits (a good
// sweep start); kUnvisited when none has an edge.
template <typename InScope>
uint32_t FirstOfMaxDegree(const BipartiteGraph& g, InScope&& in_scope) {
  uint32_t best = kUnvisited;
  uint64_t best_degree = 0;
  for (uint32_t node = 0; node < g.num_nodes(); ++node) {
    const uint64_t degree = Degree(g, node);
    if (degree > best_degree && in_scope(node)) {
      best = node;
      best_degree = degree;
    }
  }
  return best;
}

// Sources one multi-source traversal carries: one bit of a word each.
constexpr size_t kSourcesPerTraversal = 64;

// Workspace of the multi-source traversal (Then et al., "The More the
// Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014).
// Bit i of each word stands for source i. `seen` is reset per call and
// `next` is all zero between levels; `frontier` is only read for active
// nodes, which write it first.
struct MultiBfsScratch {
  explicit MultiBfsScratch(uint32_t num_nodes)
      : seen(num_nodes), frontier(num_nodes), next(num_nodes) {}

  std::vector<uint64_t> seen;      // sources that have reached the node
  std::vector<uint64_t> frontier;  // sources that reached it last level
  std::vector<uint64_t> next;      // sources that reach it this level
  std::vector<uint32_t> active;    // nodes reached last level
  std::vector<uint32_t> next_active;
};

// Eccentricities of `count` (at most 64) distinct sources in one walk of
// the graph. Source i's eccentricity is the last level at which its bit
// reached a new node, which is what a per-source BFS would return.
void MultiSourceEccentricities(const BipartiteGraph& g,
                               const uint32_t* sources, size_t count,
                               MultiBfsScratch& s, uint32_t* ecc_out) {
  WSD_CHECK(count >= 1 && count <= kSourcesPerTraversal);
  std::fill(s.seen.begin(), s.seen.end(), 0);
  uint64_t* const seen = s.seen.data();
  uint64_t* const frontier = s.frontier.data();
  uint64_t* const next = s.next.data();
  s.active.clear();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    seen[sources[i]] = bit;
    frontier[sources[i]] = bit;
    s.active.push_back(sources[i]);
    ecc_out[i] = 0;
  }
  for (uint32_t level = 1; !s.active.empty(); ++level) {
    // Every active node offers its frontier bits to its neighbors;
    // `next` collects the sources that reach a node for the first time
    // at this level.
    s.next_active.clear();
    for (uint32_t u : s.active) {
      const uint64_t bits = frontier[u];
      ForEachNeighbor(g, u, [&](uint32_t v) {
        const uint64_t fresh = bits & ~seen[v];
        if (fresh == 0) return;
        if (next[v] == 0) s.next_active.push_back(v);
        next[v] |= fresh;
      });
    }
    uint64_t reached = 0;
    for (uint32_t v : s.next_active) {
      seen[v] |= next[v];
      frontier[v] = next[v];
      reached |= next[v];
      next[v] = 0;
    }
    for (; reached != 0; reached &= reached - 1) {
      ecc_out[std::countr_zero(reached)] = level;
    }
    std::swap(s.active, s.next_active);
  }
}

DiameterResult ExactDiameterImpl(const BipartiteGraph& graph,
                                 uint32_t max_bfs, ThreadPool* pool) {
  DiameterResult result;
  BfsScratch scratch;
  // ecc_upper[v] bounds ecc(v) by ecc(x) + d(x, v), folded over every
  // sweep source x (Takes and Kosters, "Determining the diameter of small
  // world networks", CIKM 2011).
  std::vector<uint32_t> ecc_upper(graph.num_nodes(), kUnvisited);
  auto sweep = [&](uint32_t source) {
    const auto [ecc, farthest] = Bfs(graph, source, scratch);
    ++result.bfs_runs;
    for (uint32_t v : scratch.queue) {
      ecc_upper[v] = std::min(ecc_upper[v], ecc + scratch.dist[v]);
    }
    return std::pair{ecc, farthest};
  };

  // The first sweep starts at the first node of maximum degree. When its
  // component holds more than half of the covered entities it is the
  // largest one, and the node is also that component's first node of
  // maximum degree. Otherwise label the components and start again; the
  // bounds the first sweep left lie outside the largest component.
  const uint32_t first =
      FirstOfMaxDegree(graph, [](uint32_t) { return true; });
  if (first == kUnvisited) return result;  // no edges
  uint32_t a = sweep(first).second;
  const auto entities_reached = static_cast<uint64_t>(std::count_if(
      scratch.queue.begin(), scratch.queue.end(),
      [&](uint32_t v) { return v < graph.num_entities(); }));
  if (2 * entities_reached <= graph.num_covered_entities()) {
    const ComponentLabels labels = LabelComponents(graph, pool);
    const uint32_t start = FirstOfMaxDegree(graph, [&](uint32_t node) {
      return labels.label[node] == labels.largest_label;
    });
    WSD_CHECK(start != kUnvisited);
    if (start != first) a = sweep(start).second;
  }
  result.component_nodes = static_cast<uint32_t>(scratch.queue.size());

  // Double sweep: lb = ecc(a) where a is the far end of the first sweep.
  auto [lb, b] = sweep(a);

  // Midpoint of the a-b path as iFUB root: any node v with
  // dist_a[v] + dist_b[v] == lb and dist_b[v] == lb/2.
  std::vector<uint32_t> dist_a = scratch.dist;  // distances from a
  const uint32_t ecc_b = sweep(b).first;
  uint32_t root = b;
  const uint32_t half = lb / 2;
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (scratch.dist[v] == half && dist_a[v] != kUnvisited &&
        dist_a[v] + scratch.dist[v] == lb) {
      root = v;
      break;
    }
  }

  // BFS tree from the root; collect level sets.
  const uint32_t depth = sweep(root).first;
  // ecc(b) >= lb, since d(a, b) = lb.
  uint32_t lower = std::max(ecc_b, depth);
  uint32_t upper = 2 * depth;
  if (lower == upper) {
    result.diameter = lower;
    return result;
  }

  // A node whose bound is at most `lower` cannot raise it, so only the
  // others enter the levels.
  std::vector<std::vector<uint32_t>> levels(depth + 1);
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (scratch.dist[v] != kUnvisited && ecc_upper[v] > lower) {
      levels[scratch.dist[v]].push_back(v);
    }
  }
  // Within a level, low-degree nodes first: peripheral nodes raise the
  // lower bound soonest, and the bounds then skip the rest.
  for (auto& level : levels) {
    std::stable_sort(level.begin(), level.end(),
                     [&](uint32_t x, uint32_t y) {
                       return Degree(graph, x) < Degree(graph, y);
                     });
  }

  // Eccentricity loop: each fringe level is evaluated in chunks of up to
  // 64 sources, one multi-source traversal per chunk. A chunk is filled
  // with the level's next nodes whose bound still exceeds `lower`, so a
  // chunk that raises `lower` lets later nodes be skipped. A skipped node
  // cannot raise `lower`, so each level's maximum, the iFUB invariant
  // below and the diameter are those of evaluating every node. The
  // budget is checked only before a chunk that will run.
  MultiBfsScratch fringe(graph.num_nodes());
  uint32_t chunk[kSourcesPerTraversal];
  uint32_t chunk_ecc[kSourcesPerTraversal];
  for (uint32_t i = depth; i >= 1 && lower < upper; --i) {
    // Process all of level i; only lower == upper is a safe early exit
    // inside the level (other level-i nodes may reach ecc up to 2*i).
    const std::vector<uint32_t>& level = levels[i];
    for (size_t pos = 0; lower < upper;) {
      const uint32_t budget =
          max_bfs > result.bfs_runs ? max_bfs - result.bfs_runs : 0;
      // With the budget spent, one node the bounds leave is enough to
      // show that a chunk would run.
      const size_t cap =
          std::min<size_t>(kSourcesPerTraversal, std::max(budget, 1u));
      size_t width = 0;
      for (; pos < level.size() && width < cap; ++pos) {
        if (ecc_upper[level[pos]] > lower) chunk[width++] = level[pos];
      }
      if (width == 0) break;
      if (budget == 0) {
        result.diameter = lower;
        result.exact = false;
        return result;
      }
      MultiSourceEccentricities(graph, chunk, width, fringe, chunk_ecc);
      result.bfs_runs += static_cast<uint32_t>(width);
      lower = std::max(lower, *std::max_element(chunk_ecc, chunk_ecc + width));
    }
    // iFUB invariant: every node at level < i has eccentricity
    // <= 2*(i-1), so once the lower bound reaches that, deeper levels
    // cannot improve it.
    if (lower >= 2 * (i - 1)) break;
    upper = std::min(upper, 2 * (i - 1));
  }
  result.diameter = lower;
  return result;
}

}  // namespace

DiameterResult ExactDiameter(const BipartiteGraph& graph, uint32_t max_bfs,
                             ThreadPool* pool) {
  const ScopedTimer phase_timer(
      MetricsRegistry::Global().GetHistogram("wsd.graph.diameter_seconds"));
  const DiameterResult result = ExactDiameterImpl(graph, max_bfs, pool);
  MetricsRegistry::Global()
      .GetCounter("wsd.graph.bfs_runs")
      .Increment(result.bfs_runs);
  return result;
}

DiameterResult AllPairsDiameter(const BipartiteGraph& graph) {
  DiameterResult result;
  const ComponentLabels labels = LabelComponents(graph);
  if (labels.largest_label == ComponentLabels::kNoComponent) return result;
  BfsScratch scratch;
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    if (labels.label[v] != labels.largest_label) continue;
    ++result.component_nodes;
    const uint32_t ecc = Bfs(graph, v, scratch).first;
    ++result.bfs_runs;
    result.diameter = std::max(result.diameter, ecc);
  }
  return result;
}

}  // namespace wsd
