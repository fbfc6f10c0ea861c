// wsdd — the webspread analysis server. Serves the Study's analyses
// (spread, set cover, graph metrics, demand/value) over HTTP, backed by
// the shared scan cache and the on-disk artifact store. See
// docs/SERVING.md for the operator's manual.
//
// usage: wsdd [flags]
//   --port=N             listen port (default 8080; 0 picks an ephemeral
//                        port and prints it)
//   --address=A          bind address (default 127.0.0.1)
//   --artifacts=DIR      on-disk scan-artifact cache (strongly
//                        recommended: restarts then skip their scans)
//   --entities=N --seed=N --scale=F --threads=N
//                        base StudyOptions (same meaning as wsdctl; a
//                        malformed value exits 2)
//   --cache-bytes=N      scan-cache byte budget (default 256 MiB)
//   --response-cache-bytes=N
//                        rendered-response memo budget (default 64 MiB)
//   --conn-threads=N     concurrent connections served (default 16)
//   --read-timeout-ms=N  idle/read socket timeout, also the bound on each
//                        blocked send (default 5000)
// A malformed or out-of-range numeric flag (port above 65535, zero
// connection threads or timeout) exits 2.
//
// Shutdown: SIGINT or SIGTERM drains in-flight requests and exits 0.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <unistd.h>

#include "serve/endpoints.h"
#include "serve/scan_cache.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/logging.h"

namespace wsd {
namespace {

// Self-pipe: the signal handler writes one byte; main blocks on read.
// Keeps the handler async-signal-safe (no locks, no allocation).
int g_shutdown_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; the result is irrelevant (worst case
  // the pipe is full, which still wakes the reader).
  const ssize_t ignored = ::write(g_shutdown_pipe[1], &byte, 1);
  (void)ignored;
}

int Main(int argc, char** argv) {
  const FlagParser args(argc, argv);
  if (args.Has("help")) {
    std::fputs(
        "wsdd — webspread analysis server (see docs/SERVING.md)\n"
        "flags: --port=N --address=A --artifacts=DIR --entities=N\n"
        "       --seed=N --scale=F --threads=N --cache-bytes=N\n"
        "       --response-cache-bytes=N --conn-threads=N\n"
        "       --read-timeout-ms=N (bounds each idle read and each\n"
        "       blocked send)\n",
        stdout);
    return 0;
  }

  const auto parsed = StudyOptions::FromFlags(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "wsdd: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const StudyOptions& base = *parsed;

  ServeContext ctx;
  ctx.base = base;
  ServerOptions server_options;
  server_options.bind_address = args.GetOr("address", "127.0.0.1");

  // Every numeric flag: a malformed or out-of-range value exits 2, like
  // a malformed study flag, instead of keeping its default.
  uint64_t cache_bytes = 256u * 1024 * 1024;
  uint64_t response_cache_bytes = ctx.responses.max_bytes();
  uint64_t port = 8080;
  uint64_t conn_threads = server_options.connection_threads;
  uint64_t read_timeout_ms = server_options.read_timeout_ms;
  struct NumericFlag {
    const char* name;
    uint64_t* value;
    uint64_t lo, hi;
  };
  constexpr uint64_t kMaxSize = std::numeric_limits<size_t>::max();
  const NumericFlag numeric_flags[] = {
      {"cache-bytes", &cache_bytes, 0, kMaxSize},
      {"response-cache-bytes", &response_cache_bytes, 0, kMaxSize},
      {"port", &port, 0, 65535},
      {"conn-threads", &conn_threads, 1, UINT32_MAX},
      {"read-timeout-ms", &read_timeout_ms, 1, UINT32_MAX},
  };
  for (const NumericFlag& flag : numeric_flags) {
    const auto v =
        args.GetUintInRange(flag.name, *flag.value, flag.lo, flag.hi);
    if (!v.ok()) {
      std::fprintf(stderr, "wsdd: %s\n", v.status().ToString().c_str());
      return 2;
    }
    *flag.value = *v;
  }
  ctx.responses.set_max_bytes(static_cast<size_t>(response_cache_bytes));
  server_options.port = static_cast<uint16_t>(port);
  server_options.connection_threads = static_cast<uint32_t>(conn_threads);
  server_options.read_timeout_ms = static_cast<uint32_t>(read_timeout_ms);
  ScanHandleCache cache(base, static_cast<size_t>(cache_bytes));
  ctx.cache = &cache;

  if (::pipe(g_shutdown_pipe) != 0) {
    WSD_LOG(kError) << "pipe() failed; cannot install signal handlers";
    return 1;
  }
  struct sigaction sa;
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // A client disconnecting mid-write must not kill the server.
  signal(SIGPIPE, SIG_IGN);

  HttpServer server(&ctx, server_options);
  const Status status = server.Start();
  if (!status.ok()) {
    WSD_LOG(kError) << "wsdd failed to start: " << status.ToString();
    return 1;
  }
  // Machine-readable port line (bench/tests parse this when --port=0).
  std::printf("wsdd: listening on %s:%u\n",
              server_options.bind_address.c_str(), server.port());
  std::fflush(stdout);

  char byte;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0) {
    // EINTR: the signal itself interrupted the read; retry — the byte
    // the handler wrote is still in the pipe.
  }
  WSD_LOG(kInfo) << "signal received; draining";
  server.Shutdown();
  return 0;
}

}  // namespace
}  // namespace wsd

int main(int argc, char** argv) { return wsd::Main(argc, argv); }
