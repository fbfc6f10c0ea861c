// Book connectivity study: builds the Books/ISBN web, extracts the
// entity-site bipartite graph with the real pipeline, and reports the §5
// metrics — components, exact diameter (with the iFUB BFS budget), and
// the robustness sweep — for a single domain in depth.
//
//   ./build/examples/book_connectivity

#include <iostream>

#include "core/report.h"
#include "core/study.h"
#include "graph/components.h"
#include "graph/diameter.h"
#include "util/string_util.h"
#include "util/timer.h"

int main() {
  wsd::StudyOptions options;
  options.num_entities = 8000;
  options.scale = 0.5;
  options.seed = 5;
  wsd::Study study(options);

  std::cout << "Scanning the synthetic book web for ISBNs...\n";
  // One scan feeds every analysis below (scan-once / analyze-many).
  auto scan = study.Scan(wsd::Domain::kBooks, wsd::Attribute::kIsbn);
  if (!scan.ok()) {
    std::cerr << "scan failed: " << scan.status() << "\n";
    return 1;
  }
  std::cout << "  " << scan->stats().pages_scanned << " pages, "
            << scan->stats().entity_mentions << " ISBN mentions matched in "
            << wsd::FormatF(scan->stats().wall_seconds, 2) << "s\n\n";

  const auto graph = wsd::BipartiteGraph::FromHostTable(
      scan->table(), options.ScaledEntities());
  std::cout << "Entity-site graph: " << graph.num_covered_entities()
            << " covered entities, " << graph.num_sites() << " sites, "
            << graph.num_edges() << " edges (avg "
            << wsd::FormatF(graph.AvgSitesPerEntity(), 1)
            << " sites/entity; paper Table 2: 8)\n";

  const auto components = wsd::AnalyzeComponents(graph);
  std::cout << "Components: " << components.num_components
            << "; largest holds "
            << wsd::FormatPct(components.largest_component_entity_fraction)
            << " of covered entities (paper: 99.96%)\n";

  wsd::Timer timer;
  const auto diameter = wsd::ExactDiameter(graph);
  std::cout << "Exact diameter (iFUB): " << diameter.diameter << " in "
            << diameter.bfs_runs << " eccentricities, "
            << wsd::FormatF(timer.ElapsedMillis(), 1)
            << "ms (paper: 8; all-pairs would need "
            << diameter.component_nodes << ")\n";
  std::cout << "Bootstrapping bound: any perfect set-expansion run needs "
               "at most d/2 = "
            << (diameter.diameter + 1) / 2 << " iterations (§5.2)\n\n";

  auto robustness = study.RunRobustness(*scan, 10);
  if (!robustness.ok()) {
    std::cerr << "robustness failed: " << robustness.status() << "\n";
    return 1;
  }
  wsd::PrintRobustness("Robustness after removing the top-k book sites",
                       *robustness, std::cout);
  std::cout << "\nEven without the biggest aggregators the book graph stays "
               "connected — set\nexpansion does not hinge on any single "
               "source (paper §5.3).\n";
  return 0;
}
