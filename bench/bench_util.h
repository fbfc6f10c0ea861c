#ifndef WSD_BENCH_BENCH_UTIL_H_
#define WSD_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "core/report.h"
#include "core/study.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace wsd {
namespace bench {

/// Study options shared by every bench: defaults, then the WSD_SCALE /
/// WSD_ENTITIES / WSD_SEED / WSD_THREADS environment knobs, then the
/// --entities / --seed / --scale / --threads / --artifacts flags (flags
/// win over env vars); a malformed flag prints the error and exits 2.
inline StudyOptions Options(int argc, char* const* argv) {
  auto options = StudyOptions::FromFlags(FlagParser(argc, argv));
  if (!options.ok()) {
    std::cerr << options.status() << "\n";
    std::exit(2);
  }
  return *options;
}

/// Prints the standard run banner so bench output is self-describing.
inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_ref,
                        const StudyOptions& options) {
  std::cout << "=== " << experiment << " ===\n"
            << "reproduces: " << paper_ref << "\n"
            << "entities/domain=" << options.ScaledEntities()
            << " seed=" << options.seed << " scale=" << options.scale
            << "\n\n";
}

/// Prints one "paper vs measured" anchor line. `ok` tolerance is decided
/// by the caller; this only formats.
inline void PrintAnchor(const std::string& what, const std::string& paper,
                        const std::string& measured) {
  std::cout << "anchor: " << what << "  [paper: " << paper
            << " | measured: " << measured << "]\n";
}

/// RAII handler for the benches' --metrics_out flag: construct first
/// thing in main(); if `--metrics_out=<path>` was passed, the destructor
/// writes `{"bench": <name>, "metrics": <registry JSON>}` to the path
/// when the bench exits. Without the flag this is a no-op, so bench
/// output and timing are unchanged.
class MetricsExport {
 public:
  /// Parses --metrics_out from the bench's argv; `bench_name` labels the
  /// emitted JSON blob.
  MetricsExport(int argc, char* const* argv, std::string bench_name)
      : name_(std::move(bench_name)) {
    const FlagParser flags(argc, argv);
    if (auto path = flags.Get("metrics_out")) path_ = *path;
  }

  ~MetricsExport() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    out << "{\n\"bench\": \"" << name_ << "\",\n\"metrics\": "
        << MetricsRegistry::Global().ToJson() << "\n}\n";
    if (out.good()) {
      std::cout << "wrote metrics to " << path_ << "\n";
    } else {
      std::cerr << "failed to write metrics to " << path_ << "\n";
    }
  }

  MetricsExport(const MetricsExport&) = delete;
  MetricsExport& operator=(const MetricsExport&) = delete;

 private:
  std::string name_;
  std::string path_;
};

}  // namespace bench
}  // namespace wsd

#endif  // WSD_BENCH_BENCH_UTIL_H_
