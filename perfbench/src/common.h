// Shared pieces of the perfbench workloads: run options, exact percentiles
// with the ten-samples-beyond rule, output checks against recorded
// digests, process resource readings, the environment header and the
// result line the benchmark prints last.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "entity/domains.h"

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool record_digests = false;  // print the canary digests (digests.txt)
  std::string trace_out;    // Chrome trace-event file of a traced run
  std::string work_dir;     // scratch space for this run (artifacts)
  std::string bench_dir;    // the perfbench directory (digests.txt lives here)
  std::string bin_dir;      // where wsdd was built
  std::string git_sha;      // "none" outside a git checkout
  std::string source_hash;  // sha256 over the sources the build used
};

/// One (domain, attribute) scan the batch workloads run: the 18 pairs
/// `wsdctl paper` scans plus restaurants/microdata.
struct Pair {
  wsd::Domain domain;
  wsd::Attribute attr;
};
const std::vector<Pair>& PaperPairs();
/// "restaurants/phone"-style label.
std::string PairName(const Pair& pair);

/// An exact percentile over a sample: nearest rank on a full sort.
struct Percentile {
  double value = 0;
  size_t samples = 0;  // sample count
  size_t beyond = 0;   // samples strictly past the reported rank
};
/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr size_t kMinBeyond = 10;
/// The q-quantile (0 < q <= 1) of `values` by nearest rank, rank =
/// ceil(q * n). Empty when fewer than kMinBeyond samples lie beyond it.
std::optional<Percentile> ExactPercentile(std::vector<double> values,
                                          double q);
/// Median of a handful of repeated measurements (set-up repetitions,
/// passes); not subject to the ten-beyond rule, which is for samples.
double MedianOf(std::vector<double> values);

/// Compares program outputs against expected digests. Every Check counts
/// as one attempted output; a mismatch or a missing expectation counts as
/// failed, never as a pass.
class OutputCheck {
 public:
  /// Records `actual` against `expected` for output `name`.
  void Check(const std::string& name, std::optional<uint64_t> expected,
             uint64_t actual);
  /// Records a failure that has no digest (non-200 status, scan error).
  void Fail(const std::string& name, const std::string& why);
  /// Records an output that matched by other means.
  void Pass() { ++attempted_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;  // first few, for the report
};

/// Recorded digests: "name hex" lines. Names are free-form keys.
std::map<std::string, uint64_t> LoadDigests(const std::string& path);
std::optional<uint64_t> Lookup(const std::map<std::string, uint64_t>& digests,
                               const std::string& name);
/// XXH64 of `bytes` (the snapshot format's checksum function).
uint64_t Digest(std::string_view bytes);
std::string Hex(uint64_t value);

/// Registry counter value (0 when the counter was never registered).
uint64_t CounterValue(const std::string& name);

/// CPU seconds (user + system) this process has used.
double SelfCpuSeconds();
/// Peak resident set of this process since the last ResetPeakRss (or
/// since it started), in MB.
double SelfPeakRssMb();
/// Returns freed heap to the system and restarts the peak resident set
/// count from the current one (Linux clear_refs; a no-op elsewhere).
void ResetPeakRss();
/// CPU seconds of another process's live threads, from each thread's
/// schedstat (nanoseconds), or of all its threads from /proc/<pid>/stat
/// (clock ticks) when schedstat is missing; negative when unreadable.
double ProcessCpuSeconds(int pid);

/// Environment header: git sha, CPU model, nproc, compiler, build type,
/// SIMD tier and the workload's corpus parameters, as one JSON object.
std::string EnvHeaderJson(const RunOptions& options,
                          const std::vector<std::pair<std::string, std::string>>&
                              workload_fields);

/// The metrics one run reports, printed as the last line of stdout.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the result (sample counts,
  /// generator lateness, checks).
  void Note(const std::string& line);
  /// Prints the notes, then the result line; returns the exit code (1
  /// when an output check failed).
  int Print(const OutputCheck& check, bool correct) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

/// Removes `path` recursively and recreates it empty.
bool ResetDir(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
