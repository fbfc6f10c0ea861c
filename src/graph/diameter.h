#ifndef WSD_GRAPH_DIAMETER_H_
#define WSD_GRAPH_DIAMETER_H_

#include <cstdint>

#include "graph/bipartite.h"
#include "graph/components.h"
#include "util/thread_pool.h"

namespace wsd {

/// Result of a diameter computation over the largest connected component.
struct DiameterResult {
  uint32_t diameter = 0;
  /// Eccentricities computed (the efficiency metric iFUB is chosen for;
  /// all-pairs would need one per node).
  uint32_t bfs_runs = 0;
  /// Nodes in the component the diameter was measured on.
  uint32_t component_nodes = 0;
  /// False when the BFS budget was exhausted; `diameter` is then a lower
  /// bound. Never happens on the study's graphs at default budgets.
  bool exact = true;
};

/// Exact diameter of the largest component via the iFUB algorithm
/// (Crescenzi et al.): a double sweep establishes a lower bound and a
/// center, then eccentricities of nodes in decreasing BFS-level order
/// tighten the bounds until they meet. On small-diameter web-like graphs
/// this needs orders of magnitude fewer BFS runs than the cubic all-pairs
/// approach the paper sidesteps the same way ("can be computed more
/// efficiently when the diameter of the graph is small", §5.2).
///
/// The fringe eccentricities run as 64-source traversals (one bit per
/// source in a word per node) on the calling thread; `pool` only labels
/// the components. The result, `bfs_runs` included, is the same at every
/// thread count. `bfs_runs` counts every eccentricity computed, so it can
/// exceed a per-source loop's count by fewer than 64 when the bounds meet
/// inside a chunk (at scale 1.0, automotive/phone and home_garden/phone
/// went from 18 to 68). The diameter, exactness and component size are
/// the per-source loop's.
DiameterResult ExactDiameter(const BipartiteGraph& graph,
                             uint32_t max_bfs = 20000,
                             ThreadPool* pool = nullptr);

/// Reference implementation: one BFS per node of the largest component.
/// O(V*E); only for tests and the ablation bench.
DiameterResult AllPairsDiameter(const BipartiteGraph& graph);

/// Eccentricity of `node` within its component (max BFS distance).
uint32_t Eccentricity(const BipartiteGraph& graph, uint32_t node);

}  // namespace wsd

#endif  // WSD_GRAPH_DIAMETER_H_
