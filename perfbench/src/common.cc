#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/hash.h"
#include "util/metrics.h"
#include "util/simd.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<Pair>& PaperPairs() {
  static const std::vector<Pair> pairs = [] {
    std::vector<Pair> out;
    for (wsd::Attribute attr : {wsd::Attribute::kPhone, wsd::Attribute::kHomepage}) {
      for (wsd::Domain domain : wsd::LocalBusinessDomains()) {
        out.push_back({domain, attr});
      }
    }
    out.push_back({wsd::Domain::kBooks, wsd::Attribute::kIsbn});
    out.push_back({wsd::Domain::kRestaurants, wsd::Attribute::kReviews});
    out.push_back({wsd::Domain::kRestaurants, wsd::Attribute::kMicrodata});
    return out;
  }();
  return pairs;
}

std::string PairName(const Pair& pair) {
  // "Hotels & Lodging" + "phone" -> "hotels_lodging/phone".
  std::string raw(wsd::DomainName(pair.domain));
  raw += '/';
  raw += wsd::AttributeName(pair.attr);
  std::string out;
  for (char c : raw) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '/') {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  return out;
}

std::optional<Percentile> ExactPercentile(std::vector<double> values,
                                          double q) {
  const size_t n = values.size();
  if (n == 0 || q <= 0 || q > 1) return std::nullopt;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  const size_t beyond = n - rank;
  if (beyond < kMinBeyond) return std::nullopt;
  return Percentile{values[rank - 1], n, beyond};
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void OutputCheck::Check(const std::string& name,
                        std::optional<uint64_t> expected, uint64_t actual) {
  ++attempted_;
  if (expected.has_value() && *expected == actual) return;
  ++failed_;
  if (problems_.size() < 8) {
    problems_.push_back(name + ": digest " + Hex(actual) + " != expected " +
                        (expected ? Hex(*expected) : std::string("(none)")));
  }
}

void OutputCheck::Fail(const std::string& name, const std::string& why) {
  ++attempted_;
  ++failed_;
  if (problems_.size() < 8) problems_.push_back(name + ": " + why);
}

std::map<std::string, uint64_t> LoadDigests(const std::string& path) {
  std::map<std::string, uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    if (fields >> name >> hex) out[name] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

std::optional<uint64_t> Lookup(const std::map<std::string, uint64_t>& digests,
                               const std::string& name) {
  const auto it = digests.find(name);
  if (it == digests.end()) return std::nullopt;
  return it->second;
}

uint64_t Digest(std::string_view bytes) { return wsd::XxHash64(bytes); }

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

uint64_t CounterValue(const std::string& name) {
  return wsd::MetricsRegistry::Global().GetCounter(name).value();
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double SelfPeakRssMb() {
  // VmHWM follows clear_refs resets; ru_maxrss never goes down.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double ProcessCpuSeconds(int pid) {
  // Nanosecond run time of each thread, from schedstat.
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  uint64_t run_ns = 0;
  bool read_any = false;
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream stat(task.path() / "schedstat");
    uint64_t ns = 0;
    if (stat >> ns) {
      run_ns += ns;
      read_any = true;
    }
  }
  if (read_any) return 1e-9 * static_cast<double>(run_ns);
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return -1;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string EnvHeaderJson(
    const RunOptions& options,
    const std::vector<std::pair<std::string, std::string>>& workload_fields) {
  std::string out = "{\"env\":{";
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"git_sha", options.git_sha},
      {"source_sha256", options.source_hash},
      {"cpu_model", CpuModel()},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"simd_tier", wsd::simd::TierName(wsd::simd::ActiveTier())},
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", JsonNumber(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
  };
  bool first = true;
  for (const auto* list : {&fields, &workload_fields}) {
    for (const auto& [key, value] : *list) {
      out += first ? "" : ",";
      first = false;
      out += JsonString(key) + ":" + JsonString(value);
    }
  }
  return out + "}}";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

int Report::Print(const OutputCheck& check, bool correct) const {
  for (const std::string& note : notes_) std::cout << note << "\n";
  for (const auto& [name, value_unit] : metrics_) {
    std::cout << "metric " << name << " = " << JsonNumber(value_unit.first)
              << " " << value_unit.second << "\n";
  }
  const double failed_frac =
      check.attempted() == 0
          ? 1.0
          : static_cast<double>(check.failed()) /
                static_cast<double>(check.attempted());
  std::cout << "outputs checked " << check.attempted() << ", failed "
            << check.failed() << " (failed_frac " << JsonNumber(failed_frac)
            << ")\n";
  for (const std::string& problem : check.problems()) {
    std::cout << "check failed: " << problem << "\n";
  }
  const bool ok = correct && check.failed() == 0 && check.attempted() > 0;
  std::string line = "{\"correct\": ";
  line += ok ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, check.attempted()));
  line += ", \"failed\": " + std::to_string(check.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    line += first ? "" : ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(value_unit.first) +
            ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return ok ? 0 : 1;
}

bool ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return std::filesystem::create_directories(path, ec) && !ec;
}

}  // namespace perfbench
