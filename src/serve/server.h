/// \file server.h
/// The `wsdd` HTTP server: a blocking-socket accept loop that hands each
/// connection to the repo's ThreadPool. Hand-rolled on purpose — the
/// repo is dependency-free, and the serving surface (six GET endpoints,
/// small responses, keep-alive + pipelining) does not need an event
/// loop. Robustness comes from the fail-closed parser (http.h) plus
/// per-socket read and send timeouts; graceful shutdown half-closes every
/// active connection so drained workers exit without abandoning in-flight
/// responses.

#ifndef WSD_SERVE_SERVER_H_
#define WSD_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "serve/endpoints.h"
#include "serve/http.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace wsd {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via HttpServer::port().
  uint16_t port = 0;
  /// Size of the connection-handling pool. Each keep-alive connection
  /// occupies one worker while open, so this bounds concurrent clients.
  uint32_t connection_threads = 16;
  /// Per-socket receive and send timeout. An idle keep-alive connection
  /// is closed after this long with no bytes, and so is a connection
  /// whose send blocks this long because the client stopped reading
  /// (counted in `wsd.serve.send_timeouts`).
  uint32_t read_timeout_ms = 5000;
  /// Requests served on one connection before it is closed (bounds how
  /// long a client can pin a worker).
  uint32_t max_keepalive_requests = 1000;
  int backlog = 128;
  HttpLimits limits;
};

/// One listening socket + accept thread + worker pool. Start() binds and
/// begins serving; Shutdown() (idempotent, also run by the destructor)
/// stops accepting, half-closes active connections and drains workers.
class HttpServer {
 public:
  /// `ctx` must outlive the server.
  HttpServer(ServeContext* ctx, const ServerOptions& options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the accept thread. Fails on bad
  /// addresses or ports already in use.
  [[nodiscard]] Status Start();

  /// The bound port (resolves ephemeral port 0). Valid after Start().
  uint16_t port() const { return port_; }

  /// Graceful shutdown: stops the accept loop, shuts down the read side
  /// of every active connection (in-flight responses still complete),
  /// and blocks until all workers drain. A worker blocked sending to a
  /// client that does not read gives up after `read_timeout_ms`.
  void Shutdown();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  ServeContext* const ctx_;
  const ServerOptions options_;
  // unguarded: listen_fd_/port_/accept_thread_/pool_ are control-plane
  // state, written only by Start() and the first Shutdown() caller
  // (serialized via the stopping_ exchange); workers never touch them.
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;

  Mutex active_mu_;
  std::set<int> active_fds_ GUARDED_BY(active_mu_);
};

}  // namespace wsd

#endif  // WSD_SERVE_SERVER_H_
