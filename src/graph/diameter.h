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
/// The four sweeps (start, the double sweep's two ends, the root) also
/// bound every node's eccentricity by ecc(x) + d(x, v) (Takes and
/// Kosters, CIKM 2011); a fringe node whose bound does not exceed the
/// lower bound is skipped, since it cannot raise it. Within a level,
/// low-degree nodes go first. The remaining fringe eccentricities run as
/// 64-source traversals (one bit per source in a word per node) on the
/// calling thread. The first sweep starts at the first node of maximum
/// degree; `pool` labels the components only when that node's component
/// holds at most half of the covered entities, and the sweep then starts
/// again in the largest one. The result, `bfs_runs` included, is the same
/// at every thread count. `bfs_runs` counts every eccentricity computed,
/// including a first sweep outside the largest component; a chunk is
/// filled before it runs, so it may hold nodes that a bound raised inside
/// the same chunk would have skipped. The diameter, exactness and
/// component size are those of evaluating every fringe node.
DiameterResult ExactDiameter(const BipartiteGraph& graph,
                             uint32_t max_bfs = 20000,
                             ThreadPool* pool = nullptr);

/// Reference implementation: one BFS per node of the largest component.
/// O(V*E); only for tests and the ablation bench.
DiameterResult AllPairsDiameter(const BipartiteGraph& graph);

}  // namespace wsd

#endif  // WSD_GRAPH_DIAMETER_H_
