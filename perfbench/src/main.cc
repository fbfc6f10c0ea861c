// wsbench — runs one perfbench workload and prints its metrics, the last
// line being the JSON result. Normally started by perfbench/run.py.
//
// usage: wsbench --workload=scan_cold|analyze_warm|serve_mix --seed=N
//                --seconds=S --trace=0|1 --work_dir=DIR --bench_dir=DIR
//                --bin_dir=DIR [--trace_out=FILE] [--git_sha=SHA]
//                [--source_hash=HEX] [--record_digests]

#include <malloc.h>

#include <iostream>

#include "util/flags.h"
#include "util/logging.h"
#include "workloads.h"

int main(int argc, char** argv) {
  // One malloc arena. With one per thread, which pool workers got their own
  // arena varied between runs and moved analyze_warm's peak RSS between 31
  // and 40 MB.
  mallopt(M_ARENA_MAX, 1);
  const wsd::FlagParser flags(argc, argv);
  perfbench::RunOptions run;
  run.workload = flags.GetOr("workload", "");
  run.seed = flags.GetUint("seed").value_or(1);
  run.seconds = flags.GetDouble("seconds").value_or(10);
  run.trace = flags.GetOr("trace", "0") == "1";
  run.record_digests = flags.Has("record_digests");
  run.work_dir = flags.GetOr("work_dir", ".bench_build/work");
  run.bench_dir = flags.GetOr("bench_dir", "perfbench");
  run.bin_dir = flags.GetOr("bin_dir", ".");
  run.trace_out = flags.GetOr("trace_out", run.work_dir + "/trace.json");
  run.git_sha = flags.GetOr("git_sha", "none");
  run.source_hash = flags.GetOr("source_hash", "unknown");
  if (run.seconds <= 0 || !perfbench::ResetDir(run.work_dir)) {
    std::cerr << "wsbench: bad --seconds or unusable --work_dir\n";
    return 2;
  }
  // Library warnings (e.g. artifact misses) are expected in cold runs.
  wsd::SetLogLevel(wsd::LogLevel::kError);
  if (run.workload == "scan_cold") return perfbench::RunScanCold(run);
  if (run.workload == "analyze_warm") return perfbench::RunAnalyzeWarm(run);
  if (run.workload == "serve_mix") return perfbench::RunServeMix(run);
  std::cerr << "wsbench: unknown --workload '" << run.workload
            << "' (scan_cold|analyze_warm|serve_mix)\n";
  return 2;
}
