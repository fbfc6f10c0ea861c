// The three perfbench workloads and the helpers the two batch ones share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/study.h"
#include "trace.h"

namespace perfbench {

int RunScanCold(const RunOptions& options);
int RunAnalyzeWarm(const RunOptions& options);
int RunServeMix(const RunOptions& options);

/// Worker count of every pool the benchmark creates and of wsdd's. On a
/// 4-vCPU host shared with other tenants the parallel phases of a 4-worker
/// pool wait on the most contended vCPU: in one contended run the pool's
/// pair analyses took twice as long, the serial value studies 1.25 times.
inline constexpr uint32_t kWorkers = 2;
/// Corpus of the batch workloads: 20,000 entities per catalog at this
/// scale (2,000 scaled entities, a tenth of the default sites).
inline constexpr uint32_t kEntities = 20000;
inline constexpr double kBatchScale = 0.1;
/// Corpus seed of analyze_warm and serve_mix, the same in every run: the
/// cost of an analysis depends on the shape of each graph, not just its
/// size (one pair's analysis takes from 6 ms to 240 ms between corpora of
/// different seeds), which would swamp the changes the benchmark is meant
/// to show. There --seed draws the traffic and the request sequence.
inline constexpr uint64_t kCorpusSeed = 42;
/// The fixed corpus whose outputs are recorded in digests.txt; every run
/// checks it before measuring, whatever its --seed.
inline constexpr uint64_t kCanarySeed = 1;
inline constexpr double kCanaryScale = 0.02;

/// Timings of the measured passes of a batch workload.
struct PassLog {
  std::vector<std::string> op_names;  // the operations of one pass, in order
  std::vector<double> op_ms;          // one sample per operation, pass after pass
  std::vector<double> pass_wall_s;    // measured wall per pass
  std::vector<double> pass_units;     // work units (pages, operations) per pass
  std::vector<double> pass_cpu_s;     // process CPU in the measured windows
};

/// Adds the end-to-end metrics every workload reports, from a PassLog: CPU
/// cost per unit of the fastest pass and peak RSS. Throughput and latency
/// are printed, not gated; each operation's time is its fastest pass, so
/// passes slowed by a noisy neighbour do not move them. `unit_name` names
/// what cpu_us_per_op and the throughput count.
void ReportBatch(const PassLog& log, double setup_s, const std::string& unit_name,
                 Report* report);

/// Per-layer metric names every traced run reports; a workload fills the
/// layers it exercises and the rest read 0 (that layer did no work).
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();
/// Emits every per-layer metric, taking values from `values` (0 when
/// absent).
void ReportLayers(const std::map<std::string, double>& values, Report* report);

/// StudyOptions for a batch corpus.
wsd::StudyOptions BatchOptions(uint64_t seed, double scale,
                               const std::string& artifact_dir);

/// Canonical snapshot digest of a scan: the result in canonical form
/// (hosts sorted by name, wall time zeroed), serialized as the aligned
/// snapshot with its provenance, hashed with XXH64.
uint64_t SnapshotDigest(const wsd::ScanResult& result,
                        const wsd::ArtifactKey& key);
wsd::ArtifactKey KeyFor(const wsd::StudyOptions& options, const Pair& pair);

/// Seconds of elapsed time since `start_ns`.
double SecondsSince(int64_t start_ns);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
