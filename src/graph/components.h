#ifndef WSD_GRAPH_COMPONENTS_H_
#define WSD_GRAPH_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite.h"
#include "util/thread_pool.h"

namespace wsd {

/// Connected-component statistics of an entity-site graph (§5.3 and the
/// right half of Table 2). Zero-degree nodes are excluded.
struct ComponentSummary {
  uint32_t num_components = 0;
  /// Entities (not nodes) in the largest component.
  uint32_t largest_component_entities = 0;
  /// Fraction of covered entities in the largest component —
  /// Table 2's "% entities in largest comp".
  double largest_component_entity_fraction = 0.0;
  /// Sites in the largest component.
  uint32_t largest_component_sites = 0;
};

/// Computes components with a union-find pass over the edges. With a
/// `pool` of two or more workers the edge scan runs as per-shard
/// union-finds merged at the end; results are identical to the serial
/// path at any thread count.
ComponentSummary AnalyzeComponents(const BipartiteGraph& graph,
                                   ThreadPool* pool = nullptr);

/// Per-node component labels (kNoComponent for zero-degree nodes) plus the
/// label of the largest component, ordered by (entities, sites) as in
/// AnalyzeComponents; an exact tie goes to the first-seen label. The
/// diameter uses it when its first sweep's component holds at most half
/// of the covered entities.
struct ComponentLabels {
  static constexpr uint32_t kNoComponent = UINT32_MAX;
  std::vector<uint32_t> label;  // size = graph.num_nodes()
  uint32_t num_components = 0;
  uint32_t largest_label = kNoComponent;
};

ComponentLabels LabelComponents(const BipartiteGraph& graph,
                                ThreadPool* pool = nullptr);

}  // namespace wsd

#endif  // WSD_GRAPH_COMPONENTS_H_
