#ifndef WSD_CORE_COVERAGE_H_
#define WSD_CORE_COVERAGE_H_

#include <cstdint>
#include <vector>

#include "extract/host_table.h"
#include "util/statusor.h"

namespace wsd {

/// The k-coverage curves of §3.3: "Given a set of websites W and a
/// positive integer k, the k-coverage of W is the fraction of entities in
/// the database that are present in at least k different websites in W."
/// Sites are taken in decreasing order of the number of entities they
/// contain; the curve samples coverage after the top-t sites for each t
/// in `t_values`.
struct CoverageCurve {
  std::vector<uint32_t> t_values;
  /// k_coverage[k-1][i] = k-coverage of the top-t_values[i] sites.
  std::vector<std::vector<double>> k_coverage;
  uint32_t num_entities = 0;  // denominator (database size)
  uint32_t num_sites = 0;     // sites available
};

/// Computes k-coverage for k = 1..max_k at the given site counts
/// (`t_values` must be positive and strictly increasing). Values of t
/// beyond the number of sites saturate at the full-web coverage. Single
/// O(E + N) sweep.
[[nodiscard]] StatusOr<CoverageCurve> ComputeKCoverage(const HostEntityTable& table,
                                         uint32_t num_entities,
                                         uint32_t max_k,
                                         std::vector<uint32_t> t_values);

/// The default x-axis of the Figs 1-4 curves (1 to 10^4, log-spaced like
/// the paper's axes).
std::vector<uint32_t> DefaultCoverageTValues(uint32_t max_sites);

}  // namespace wsd

#endif  // WSD_CORE_COVERAGE_H_
