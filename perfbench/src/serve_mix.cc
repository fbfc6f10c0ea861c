// serve_mix: a wsdd child process on loopback, driven open-loop at one
// fixed offered rate. Targets follow a Zipf distribution over /spread,
// /setcover, /graph and /demand (varying k, format and pair); the target
// set is larger than the server's --response-cache-bytes budget, so a
// steady share of requests runs an analysis, and a small share carries a
// fresh seed, so the scan cache misses and a scan runs. One extra
// connection sends each request in timed chunks; its latency is not
// reported, only its failures count. Every 200 body is compared with the
// same renderer run directly on a Study in set-up.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <fcntl.h>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "core/coverage.h"
#include "core/set_cover.h"
#include "open_loop.h"
#include "serve/endpoints.h"
#include "serve/http.h"
#include "serve/http_client.h"
#include "serve/scan_cache.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kServeScale = 0.1;       // 2,000 scaled entities
constexpr double kOfferedRate = 300;      // requests per second
constexpr size_t kFastConnections = 3;    // plus one slow connection
constexpr double kZipfExponent = 1.0;
constexpr double kResponseBudgetShare = 0.6;  // of all rendered bodies
constexpr size_t kFreshSeedEvery = 1000;  // one fresh-seed request per 1000
// Fresh-seed scans run at this scale (a per-request override): at the
// serve scale one took about 65 ms on the server's pool and delayed the
// requests queued behind it more than the misses the mix is about.
constexpr double kFreshScale = 0.02;
constexpr int kSlowChunks = 3;
constexpr int kSlowChunkGapMs = 20;
constexpr int kSlowRequestGapMs = 100;

constexpr wsd::TrafficSite kSites[] = {wsd::TrafficSite::kAmazon,
                                       wsd::TrafficSite::kYelp,
                                       wsd::TrafficSite::kImdb};

struct Target {
  std::string path;  // request target
  std::string body;  // expected 200 body
};

wsd::StudyOptions ServeOptions(uint64_t seed) {
  return BatchOptions(seed, kServeScale, "");
}

// The server's query vocabulary for a pair ("domain=hotels&attr=phone").
std::string PairQuery(const Pair& pair) {
  static const char* const kDomainParams[] = {
      "books", "restaurants", "automotive", "banks", "libraries",
      "schools", "hotels", "retail", "home"};
  return std::string("domain=") + kDomainParams[static_cast<int>(pair.domain)] +
         "&attr=" + wsd::ToLower(std::string(wsd::AttributeName(pair.attr)));
}

const char* FormatName(wsd::WireFormat format) {
  return format == wsd::WireFormat::kTsv ? "tsv" : "json";
}

// Every distinct target of the mix with its expected body, rendered on a
// Study at the server's base options.
std::string BuildTargets(const wsd::StudyOptions& options,
                         std::vector<Target>* targets) {
  wsd::Study study(options);
  const wsd::WireFormat formats[] = {wsd::WireFormat::kJson, wsd::WireFormat::kTsv};
  for (const Pair& pair : PaperPairs()) {
    auto scan = study.Scan(pair.domain, pair.attr);
    if (!scan.ok()) return scan.status().ToString();
    const auto& table = scan->table();
    const uint32_t entities = options.ScaledEntities();
    const auto t_values =
        wsd::DefaultCoverageTValues(static_cast<uint32_t>(table.num_hosts()));
    const std::string query = PairQuery(pair);
    for (uint32_t k = 1; k <= 10; ++k) {
      auto curve = wsd::ComputeKCoverage(table, entities, k, t_values);
      if (!curve.ok()) return curve.status().ToString();
      for (auto format : formats) {
        targets->push_back({"/spread?" + query + "&k=" + std::to_string(k) +
                                "&format=" + FormatName(format),
                            wsd::SpreadBody(pair.domain, pair.attr, *curve, format)});
      }
    }
    auto cover = study.RunSetCover(*scan);
    if (!cover.ok()) return cover.status().ToString();
    auto row = study.RunGraphMetrics(*scan);
    if (!row.ok()) return row.status().ToString();
    for (auto format : formats) {
      targets->push_back({"/setcover?" + query + "&format=" + FormatName(format),
                          wsd::SetCoverBody(pair.domain, pair.attr, *cover, format)});
    }
    targets->push_back({"/graph?" + query + "&format=json",
                        wsd::GraphBody(*row, wsd::WireFormat::kJson)});
  }
  for (wsd::TrafficSite site : kSites) {
    auto value = study.RunValueStudy(site);
    if (!value.ok()) return value.status().ToString();
    for (auto format : formats) {
      targets->push_back({"/demand?site=" + std::string(wsd::TrafficSiteName(site)) +
                              "&format=" + FormatName(format),
                          wsd::DemandBody(*value, format)});
    }
  }
  return "";
}

// A fresh-seed target: banks/phone /spread at a seed the server has not
// scanned, so it runs a scan and then k-coverage. (Not /graph: the exact
// diameter's cost on a corpus nobody chose varies too much between seeds.)
std::string FreshTarget(uint64_t seed, std::string* body) {
  const wsd::StudyOptions options = BatchOptions(seed, kFreshScale, "");
  wsd::Study study(options);
  auto scan = study.Scan(wsd::Domain::kBanks, wsd::Attribute::kPhone);
  if (!scan.ok()) return "";
  const std::string query = "domain=banks&attr=phone&format=json&seed=" +
                            std::to_string(seed) +
                            "&scale=" + wsd::StrFormat("%.17g", kFreshScale);
  auto spread = study.RunSpread(*scan, 3);
  if (!spread.ok()) return "";
  *body = wsd::SpreadBody(wsd::Domain::kBanks, wsd::Attribute::kPhone, spread->curve,
                          wsd::WireFormat::kJson);
  return "/spread?" + query + "&k=3";
}

// The wsdd child process. The destructor stops it (SIGTERM, then SIGKILL
// after 10 s) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path) {
    int out[2];
    if (pipe(out) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(out[1], STDOUT_FILENO);
      const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) dup2(log, STDERR_FILENO);
      close(out[0]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(out[1]);
    stdout_fd_ = out[0];
    // "wsdd: listening on 127.0.0.1:PORT"
    std::string line;
    char c;
    while (read(stdout_fd_, &c, 1) == 1 && c != '\n') line += c;
    const size_t colon = line.rfind(':');
    if (line.find("listening") == std::string::npos || colon == std::string::npos) {
      return false;
    }
    port_ = static_cast<uint16_t>(std::stoi(line.substr(colon + 1)));
    return true;
  }

  // Stops the server; returns its peak RSS in MB (0 if unknown).
  double Stop() {
    if (pid_ <= 0) return 0;
    kill(pid_, SIGTERM);
    rusage usage{};
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (wait4(pid_, &status, WNOHANG, &usage) == pid_) break;
      if (i == 999) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
      }
      usleep(10000);
    }
    pid_ = -1;
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdout_fd_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  int pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

// Registry counter values from the server's Prometheus /metrics.
std::map<std::string, double> ScrapeCounters(uint16_t port) {
  std::map<std::string, double> out;
  wsd::HttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return out;
  auto resp = client.Get("/metrics");
  if (!resp.ok()) return out;
  size_t pos = 0;
  const std::string& text = resp->body;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos || line.find('{') != std::string::npos) continue;
    out[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

// One request sent in kSlowChunks pieces with kSlowChunkGapMs between
// them (well under the server's read timeout); returns the body on a 200.
std::optional<std::string> SlowGet(uint16_t port, const std::string& target) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::optional<std::string> body;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    const size_t chunk = (request.size() + kSlowChunks - 1) / kSlowChunks;
    bool sent = true;
    for (size_t off = 0; off < request.size() && sent; off += chunk) {
      if (off > 0) std::this_thread::sleep_for(std::chrono::milliseconds(kSlowChunkGapMs));
      const size_t n = std::min(chunk, request.size() - off);
      sent = send(fd, request.data() + off, n, MSG_NOSIGNAL) == static_cast<ssize_t>(n);
    }
    std::string response;
    char buf[16384];
    ssize_t got;
    while (sent && (got = recv(fd, buf, sizeof(buf), 0)) > 0) response.append(buf, got);
    const size_t header_end = response.find("\r\n\r\n");
    if (response.rfind("HTTP/1.1 200", 0) == 0 && header_end != std::string::npos) {
      body = response.substr(header_end + 4);
    }
  }
  close(fd);
  return body;
}

struct Mix {
  std::vector<Target> targets;       // distinct targets, Zipf rank order
  std::vector<size_t> sequence;      // target index per request
  std::vector<size_t> slow_sequence; // target index per slow request
};

// Zipf-distributed target indices; every kFreshSeedEvery-th request is a
// fresh-seed target appended to `targets`. The popularity order is fixed,
// so every seed offers the same mix of endpoints: /graph and /demand
// (warmed in set-up) take the top ranks, then /spread and /setcover in
// one fixed shuffled order. The seed draws the request sequence and the
// fresh seeds; the server's corpus is kCorpusSeed.
Mix BuildMix(std::vector<Target> targets, uint64_t seed, size_t requests,
             OutputCheck* check) {
  Mix mix;
  auto warmed = [](const Target& t) {
    return t.path.rfind("/graph", 0) == 0 || t.path.rfind("/demand", 0) == 0;
  };
  const auto rest = std::stable_partition(targets.begin(), targets.end(), warmed);
  std::mt19937_64 order_rng(0x5eed);
  std::shuffle(rest, targets.end(), order_rng);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<double> cdf;
  double total = 0;
  for (size_t r = 1; r <= targets.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
    cdf.push_back(total);
  }
  const size_t base_targets = targets.size();
  mix.targets = std::move(targets);
  auto draw = [&] {
    const double u = std::uniform_real_distribution<double>(0, total)(rng);
    return static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  for (size_t i = 0; i < requests; ++i) {
    if (i % kFreshSeedEvery == kFreshSeedEvery / 2) {
      Target fresh;
      fresh.path = FreshTarget(seed + 100000 + i,
                               &fresh.body);
      if (fresh.path.empty()) {
        check->Fail("fresh-seed reference", "scan failed");
        continue;
      }
      mix.sequence.push_back(mix.targets.size());
      mix.targets.push_back(std::move(fresh));
      continue;
    }
    mix.sequence.push_back(std::min(draw(), base_targets - 1));
  }
  const size_t slow = static_cast<size_t>(requests / kOfferedRate * 1000 / kSlowRequestGapMs);
  for (size_t i = 0; i < slow; ++i) mix.slow_sequence.push_back(std::min(draw(), base_targets - 1));
  return mix;
}

struct LiveResult {
  std::vector<RequestTiming> timings;
  uint64_t slow_attempted = 0;
  uint64_t slow_failed = 0;
};

// Drives requests [begin, end) of the mix open-loop on the fast
// connections while the slow connection runs alongside.
LiveResult DriveLive(uint16_t port, const Mix& mix, size_t begin, size_t end,
                     size_t slow_begin, size_t slow_end, bool traced,
                     OutputCheck* check) {
  LiveResult live;
  std::vector<std::unique_ptr<wsd::HttpClient>> clients;
  for (size_t c = 0; c < kFastConnections; ++c) {
    clients.push_back(std::make_unique<wsd::HttpClient>());
    if (!clients.back()->Connect("127.0.0.1", port).ok()) {
      check->Fail("connect", "fast connection failed");
    }
  }
  std::vector<std::string> problems(end - begin);
  std::atomic<bool> done{false};
  std::thread slow([&] {
    for (size_t i = slow_begin; i < slow_end && !done.load(); ++i) {
      const Target& target = mix.targets[mix.slow_sequence[i]];
      const auto body = SlowGet(port, target.path);
      ++live.slow_attempted;
      if (!body.has_value() || *body != target.body) ++live.slow_failed;
      std::this_thread::sleep_for(std::chrono::milliseconds(kSlowRequestGapMs));
    }
  });
  const SteadyClock clock;
  const int64_t interval = static_cast<int64_t>(1e9 / kOfferedRate);
  Tracer::Get().set_enabled(traced);
  live.timings = RunOpenLoop(
      clock, clock.Now() + 20'000'000, interval, end - begin, kFastConnections,
      [&](size_t i, size_t worker) {
        const Target& target = mix.targets[mix.sequence[begin + i]];
        const Span span("serve.request", begin + i + 1);
        auto resp = clients[worker]->Get(target.path);
        if (!resp.ok()) {
          problems[i] = target.path + ": " + resp.status().ToString();
        } else if (resp->status != 200) {
          problems[i] = target.path + ": status " + std::to_string(resp->status);
        } else if (resp->body != target.body) {
          problems[i] = target.path + ": body differs from the Study render";
        }
        return problems[i].empty();
      });
  Tracer::Get().set_enabled(false);
  done = true;
  slow.join();
  for (size_t i = 0; i < problems.size(); ++i) {
    if (problems[i].empty()) {
      check->Pass();
    } else {
      check->Fail("request " + std::to_string(begin + i), problems[i]);
    }
  }
  for (uint64_t i = 0; i < live.slow_attempted; ++i) {
    if (i < live.slow_failed) {
      check->Fail("slow connection", "request failed or body differs");
    } else {
      check->Pass();
    }
  }
  return live;
}

std::vector<std::string> ServerArgs(uint64_t seed, size_t response_budget) {
  return {"--port=0",
          "--entities=" + std::to_string(kEntities),
          "--scale=" + wsd::StrFormat("%.17g", kServeScale),
          "--seed=" + std::to_string(seed),
          "--threads=" + std::to_string(kWorkers),
          "--conn-threads=8",
          "--response-cache-bytes=" + std::to_string(response_budget)};
}

// Starts wsdd and warms it over kWorkers connections: its scan cache for
// the base seed (one /spread per pair), then its response cache.
bool StartAndWarm(const RunOptions& run, size_t budget, const Mix& mix,
                  ServerProcess* server) {
  if (!server->Start(run.bin_dir + "/wsdd", ServerArgs(kCorpusSeed, budget),
                     run.work_dir + "/wsdd.log")) {
    return false;
  }
  std::vector<std::string> warm;
  for (const Pair& pair : PaperPairs()) {
    warm.push_back("/spread?" + PairQuery(pair) + "&k=10&format=json");
  }
  const size_t scans = warm.size();
  // Every base target once, least popular first: the response cache then
  // starts the measured run holding the most popular bodies, as it does
  // in steady state, instead of missing on them for the first seconds.
  for (size_t i = mix.targets.size(); i-- > 0;) {
    if (mix.targets[i].path.find("seed=") == std::string::npos) {
      warm.push_back(mix.targets[i].path);
    }
  }
  std::atomic<bool> ok{true};
  auto fetch = [&](size_t begin, size_t end) {
    std::atomic<size_t> next{begin};
    std::vector<std::thread> threads;
    for (uint32_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&] {
        wsd::HttpClient client;
        if (!client.Connect("127.0.0.1", server->port()).ok()) {
          ok = false;
          return;
        }
        for (size_t i = next++; i < end; i = next++) {
          auto resp = client.Get(warm[i]);
          if (!resp.ok() || resp->status != 200) ok = false;
        }
      });
    }
    for (auto& t : threads) t.join();
  };
  fetch(0, scans);  // scans first: the analyses below read them
  fetch(scans, warm.size());
  return ok;
}

std::optional<wsd::HttpRequest> ParseTarget(const std::string& target) {
  const std::string bytes = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  auto parsed = wsd::ParseHttpRequest(bytes, wsd::HttpLimits{});
  if (parsed.state != wsd::HttpParseState::kOk) return std::nullopt;
  return std::move(parsed.request);
}

// In-process layer timings of the serve path: parse, HandleRequest hits
// and misses, and scan-cache misses, on a ServeContext configured like
// the server.
void InProcessLayers(const RunOptions& run, const Mix& mix, double budget_s,
                     std::map<std::string, double>* layers, OutputCheck* check) {
  const wsd::StudyOptions base = ServeOptions(kCorpusSeed);
  std::vector<std::string> request_bytes;
  for (size_t index : mix.sequence) {
    request_bytes.push_back("GET " + mix.targets[index].path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  }
  {
    const Span span("serve.parse_all");
    const int64_t t0 = NowNs();
    size_t ok = 0;
    for (const std::string& bytes : request_bytes) {
      ok += wsd::ParseHttpRequest(bytes, wsd::HttpLimits{}).state ==
            wsd::HttpParseState::kOk;
    }
    (*layers)["serve.parse_us"] =
        1e-3 * static_cast<double>(NowNs() - t0) / static_cast<double>(request_bytes.size());
    if (ok != request_bytes.size()) check->Fail("parse", "a mix request failed to parse");
  }

  wsd::ScanHandleCache cache(base, 256u * 1024 * 1024);
  wsd::ServeContext ctx;
  ctx.base = base;
  ctx.cache = &cache;
  ctx.responses.set_max_bytes(size_t{1} << 30);
  for (const Pair& pair : PaperPairs()) {
    if (!cache.Get({pair.domain, pair.attr, base.seed, base.scale}).ok()) {
      check->Fail("in-process warm", PairName(pair));
    }
  }
  // Misses: the first request for each distinct base target, in
  // popularity order, until the time budget is spent.
  std::vector<double> miss_ms;
  std::vector<wsd::HttpRequest> warmed;
  const int64_t start = NowNs();
  for (size_t i = 0; i < mix.targets.size() && SecondsSince(start) < budget_s; ++i) {
    if (mix.targets[i].path.find("seed=") != std::string::npos) continue;
    auto req = ParseTarget(mix.targets[i].path);
    if (!req) continue;
    wsd::HttpResponse resp;
    {
      const Span span("serve.handle_miss");
      const int64_t t0 = NowNs();
      wsd::HandleRequest(ctx, *req, &resp);
      miss_ms.push_back(1e-6 * static_cast<double>(NowNs() - t0));
    }
    if (resp.status != 200 || resp.body != mix.targets[i].body) {
      check->Fail("in-process " + mix.targets[i].path, "body differs");
    } else {
      check->Pass();
    }
    warmed.push_back(std::move(*req));
  }
  (*layers)["serve.handle_miss_ms"] = MedianOf(miss_ms);
  // Hits: the same requests again, ten rounds, timed as a batch.
  {
    const Span span("serve.handle_hit_all");
    const int64_t t0 = NowNs();
    wsd::HttpResponse resp;
    for (int round = 0; round < 10; ++round) {
      for (const auto& req : warmed) wsd::HandleRequest(ctx, req, &resp);
    }
    (*layers)["serve.handle_hit_us"] =
        1e-3 * static_cast<double>(NowNs() - t0) / static_cast<double>(10 * warmed.size());
  }
  // Scan-cache misses: banks/phone at three seeds nobody scanned.
  std::vector<double> scan_ms;
  for (uint64_t j = 0; j < 3; ++j) {
    const Span span("serve.scan_miss");
    const int64_t t0 = NowNs();
    if (!cache.Get({wsd::Domain::kBanks, wsd::Attribute::kPhone, run.seed + 900000 + j,
                    base.scale})
             .ok()) {
      check->Fail("scan miss", "scan failed");
    }
    scan_ms.push_back(1e-6 * static_cast<double>(NowNs() - t0));
  }
  (*layers)["serve.scan_miss_ms"] = MedianOf(scan_ms);
}

}  // namespace

int RunServeMix(const RunOptions& run) {
  OutputCheck check;
  Report report;
  const size_t requests = static_cast<size_t>(kOfferedRate * run.seconds);
  report.Note(EnvHeaderJson(
      run, {{"entities", std::to_string(kEntities)},
            {"scale", wsd::StrFormat("%g", kServeScale)},
            {"corpus_seed", std::to_string(kCorpusSeed)},
            {"offered_rate_per_s", wsd::StrFormat("%g", kOfferedRate)},
            {"requests", std::to_string(requests)},
            {"fast_connections", std::to_string(kFastConnections)},
            {"slow_connections", "1"},
            {"zipf_exponent", wsd::StrFormat("%g", kZipfExponent)},
            {"server_threads", std::to_string(kWorkers)}}));

  // Expected bodies, rendered on a Study (not part of setup_s).
  std::vector<Target> targets;
  const std::string error = BuildTargets(ServeOptions(kCorpusSeed), &targets);
  if (!error.empty()) {
    check.Fail("reference", error);
    return report.Print(check, false);
  }
  size_t all_bytes = 0;
  for (const Target& t : targets) all_bytes += t.path.size() + t.body.size() + 32;
  const size_t budget = static_cast<size_t>(kResponseBudgetShare * static_cast<double>(all_bytes));
  const size_t distinct = targets.size();
  const Mix mix = BuildMix(std::move(targets), run.seed, requests, &check);
  if (check.failed() > 0) return report.Print(check, false);

  // Set-up: start wsdd and warm its scan cache, three times; the third
  // server is the one measured.
  std::vector<double> setups;
  ServerProcess server;
  for (int i = 0; i < 3; ++i) {
    if (i > 0) server.Stop();
    const int64_t t0 = NowNs();
    if (!StartAndWarm(run, budget, mix, &server)) {
      check.Fail("setup", "wsdd failed to start or warm");
      return report.Print(check, false);
    }
    setups.push_back(SecondsSince(t0));
  }

  const auto counters0 = ScrapeCounters(server.port());
  const double cpu0 = ProcessCpuSeconds(server.pid());
  const size_t half = run.trace ? requests / 2 : 0;
  const size_t slow_half = run.trace ? mix.slow_sequence.size() / 2 : 0;
  LiveResult untraced = DriveLive(server.port(), mix, 0, run.trace ? half : requests, 0,
                                  run.trace ? slow_half : mix.slow_sequence.size(),
                                  false, &check);
  LiveResult traced;
  if (run.trace) {
    traced = DriveLive(server.port(), mix, half, requests, slow_half,
                       mix.slow_sequence.size(), true, &check);
  }
  const double cpu1 = ProcessCpuSeconds(server.pid());
  const auto counters1 = ScrapeCounters(server.port());

  auto latencies = [](const LiveResult& live) {
    std::vector<double> out;
    for (const auto& t : live.timings) {
      if (t.ok) out.push_back(t.latency_ms());
    }
    return out;
  };
  const std::vector<double> lat = latencies(untraced);

  const auto p50 = ExactPercentile(lat, 0.5);
  const auto p95 = ExactPercentile(lat, 0.95);
  const auto p99 = ExactPercentile(lat, 0.99);

  if (!run.trace) {
    std::vector<double> late;
    for (const auto& t : untraced.timings) late.push_back(t.late_ms());
    const auto late_p50 = ExactPercentile(late, 0.5);
    const auto late_p99 = ExactPercentile(late, 0.99);
    double late_max = 0;
    size_t late_count = 0;
    for (double ms : late) {
      late_max = std::max(late_max, ms);
      late_count += ms > 1.0;
    }
    const auto& first = untraced.timings.front();
    const auto& last = untraced.timings.back();
    const double span_s = 1e-9 * static_cast<double>(last.done_ns - first.due_ns);
    const uint64_t completed = lat.size() + untraced.slow_attempted - untraced.slow_failed;
    const double peak_rss = server.Stop();
    report.Metric("setup_s", MedianOf(setups), "s");
    report.Metric("cpu_us_per_op",
                  completed > 0 ? 1e6 * (cpu1 - cpu0) / static_cast<double>(completed) : 0,
                  "us");
    report.Metric("peak_rss_mb", peak_rss, "MB");
    report.Note(wsd::StrFormat(
        "open loop at %g/s: %zu requests on %zu connections, %zu distinct targets "
        "(%zu-byte response budget, %zu bodies total); completed %.2f requests/s",
        kOfferedRate, requests, kFastConnections, distinct, budget, all_bytes,
        static_cast<double>(lat.size()) / span_s));
    // Not gated: on a shared 4-core host the same run's percentiles move by
    // half or more between runs, with the host's wake-up latency and stalls.
    report.Note(wsd::StrFormat(
        "latency from due time over %zu samples (not gated): p50 %.3f ms (%zu beyond), "
        "p95 %.3f ms (%zu beyond), p99 %.3f ms (%zu beyond)",
        lat.size(), p50 ? p50->value : 0, p50 ? p50->beyond : 0, p95 ? p95->value : 0,
        p95 ? p95->beyond : 0, p99 ? p99->value : 0, p99 ? p99->beyond : 0));
    report.Note(wsd::StrFormat(
        "generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms, %zu of %zu sent >1 ms late",
        late_p50 ? late_p50->value : 0, late_p99 ? late_p99->value : 0, late_max,
        late_count, late.size()));
    report.Note(wsd::StrFormat(
        "slow connection: %llu requests, %llu failed; response cache hits %.0f misses %.0f, "
        "scan cache hits %.0f misses %.0f",
        static_cast<unsigned long long>(untraced.slow_attempted),
        static_cast<unsigned long long>(untraced.slow_failed),
        Delta(counters0, counters1, "wsd_serve_response_cache_hits"),
        Delta(counters0, counters1, "wsd_serve_response_cache_misses"),
        Delta(counters0, counters1, "wsd_serve_scan_cache_hits"),
        Delta(counters0, counters1, "wsd_serve_scan_cache_misses")));
    return report.Print(check, p50.has_value() && p99.has_value());
  }

  // Traced run: client latency of a certain hit, then the in-process
  // layer timings.
  std::vector<double> hit_us;
  {
    wsd::HttpClient client;
    if (client.Connect("127.0.0.1", server.port()).ok()) {
      const Target& hot = mix.targets[0];
      for (int i = 0; i < 500; ++i) {
        const int64_t t0 = NowNs();
        auto resp = client.Get(hot.path);
        hit_us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
        if (!resp.ok() || resp->body != hot.body) {
          check.Fail("hit probe", hot.path);
          break;
        }
      }
    }
  }
  server.Stop();
  std::map<std::string, double> layers;
  Tracer::Get().set_enabled(true);
  InProcessLayers(run, mix, 0.25 * run.seconds, &layers, &check);
  Tracer::Get().set_enabled(false);
  const double client_hit_us = MedianOf(hit_us);
  layers["serve.transport_us"] = client_hit_us - layers["serve.handle_hit_us"];
  auto ratio = [&](const std::string& prefix) {
    const double hits = Delta(counters0, counters1, prefix + "_hits");
    const double misses = Delta(counters0, counters1, prefix + "_misses");
    return hits + misses > 0 ? hits / (hits + misses) : 0;
  };
  layers["serve.response_cache.hit_ratio"] = ratio("wsd_serve_response_cache");
  layers["serve.scan_cache.hit_ratio"] = ratio("wsd_serve_scan_cache");
  const std::vector<double> traced_lat = latencies(traced);
  layers["trace.overhead_frac"] = MedianOf(traced_lat) / MedianOf(lat) - 1;
  layers["trace.spans"] = static_cast<double>(Tracer::Get().stored());
  report.Note(wsd::StrFormat(
      "client hit latency median %.2f us over %zu closed-loop requests; overhead "
      "compares median latency of the traced half (%zu samples) with the untraced "
      "half (%zu samples)",
      client_hit_us, hit_us.size(), traced_lat.size(), lat.size()));
  ReportLayers(layers, &report);
  if (!Tracer::Get().WriteChromeTrace(run.trace_out)) {
    check.Fail("trace", "could not write " + run.trace_out);
  }
  report.Note("chrome trace: " + run.trace_out + " (" +
              std::to_string(Tracer::Get().stored()) + " spans)");
  return report.Print(check, true);
}

}  // namespace perfbench
