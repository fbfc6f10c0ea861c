#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace wsd {

namespace {

struct ServerMetrics {
  Counter& connections;
  Counter& parse_errors;
  Counter& read_timeouts;
  Counter& send_timeouts;
  Gauge& active_connections;

  static ServerMetrics& Get() {
    static ServerMetrics* m = [] {
      auto& reg = MetricsRegistry::Global();
      return new ServerMetrics{
          reg.GetCounter("wsd.serve.connections"),
          reg.GetCounter("wsd.serve.parse_errors"),
          reg.GetCounter("wsd.serve.read_timeouts"),
          reg.GetCounter("wsd.serve.send_timeouts"),
          reg.GetGauge("wsd.serve.active_connections"),
      };
    }();
    return *m;
  }
};

/// Writes all of `data`, retrying on partial sends. MSG_NOSIGNAL keeps a
/// peer that closed early from killing the process with SIGPIPE. A send
/// that blocks past SO_SNDTIMEO (a client that stopped reading) fails
/// and is counted, so the caller closes the connection.
bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ServerMetrics::Get().send_timeouts.Increment();
      }
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

HttpServer::HttpServer(ServeContext* ctx, const ServerOptions& options)
    : ctx_(ctx), options_(options) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrFormat("bad bind address '%s'", options_.bind_address.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Status::IOError(
        StrFormat("bind %s:%u: %s", options_.bind_address.c_str(),
                  options_.port, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const Status status =
        Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status status =
        Status::IOError(StrFormat("getsockname: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);

  pool_ = std::make_unique<ThreadPool>(options_.connection_threads);
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  WSD_LOG(kInfo) << "wsdd listening on " << options_.bind_address << ":"
                 << port_;
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EBADF || errno == EINVAL) return;  // socket closed
      WSD_LOG(kWarning) << "accept: " << std::strerror(errno);
      continue;
    }
    timeval tv;
    tv.tv_sec = options_.read_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(options_.read_timeout_ms % 1000) *
                 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      MutexLock lock(active_mu_);
      active_fds_.insert(fd);
    }
    ServerMetrics::Get().connections.Increment();
    ServerMetrics::Get().active_connections.Add(1);
    pool_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void HttpServer::HandleConnection(int fd) {
  // Requests are parsed at `offset` into `buf`; the consumed prefix is
  // dropped once before each recv, so a pipelined burst costs O(bytes)
  // rather than one move of the rest of the buffer per request.
  std::string buf;
  size_t offset = 0;
  char chunk[8192];
  uint32_t served = 0;
  bool open = true;
  while (open) {
    const HttpParseResult parsed = ParseHttpRequest(
        std::string_view(buf).substr(offset), options_.limits);
    if (parsed.state == HttpParseState::kError) {
      ServerMetrics::Get().parse_errors.Increment();
      HttpResponse resp;
      resp.status = parsed.error_code;
      resp.close = true;
      resp.body = "{\"error\":\"";
      resp.body += parsed.error;
      resp.body += "\"}\n";
      SendAll(fd, SerializeHttpResponse(resp));
      break;
    }
    if (parsed.state == HttpParseState::kOk) {
      offset += parsed.consumed;
      HttpResponse resp;
      HandleRequest(*ctx_, parsed.request, &resp);
      ++served;
      // Drain semantics: the response for anything already buffered is
      // still delivered, but the connection closes afterwards.
      if (!parsed.request.keep_alive || stopping_.load() ||
          served >= options_.max_keepalive_requests) {
        resp.close = true;
        open = false;
      }
      if (!SendAll(fd, SerializeHttpResponse(resp))) break;
      continue;
    }
    // kNeedMore: block for more bytes (bounded by SO_RCVTIMEO).
    buf.erase(0, offset);
    offset = 0;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ServerMetrics::Get().read_timeouts.Increment();
      if (!buf.empty()) {
        // A half-sent request that stalled: answer 408-adjacent with the
        // fail-closed vocabulary (400) rather than hanging forever.
        HttpResponse resp;
        resp.status = 400;
        resp.close = true;
        resp.body = "{\"error\":\"read timeout\"}\n";
        SendAll(fd, SerializeHttpResponse(resp));
      }
    }
    break;  // peer closed (n == 0), timed out, or hard error
  }
  {
    MutexLock lock(active_mu_);
    active_fds_.erase(fd);
  }
  ServerMetrics::Get().active_connections.Add(-1);
  ::close(fd);
}

void HttpServer::Shutdown() {
  if (!started_.load()) return;
  if (stopping_.exchange(true)) {
    // Second caller (e.g. destructor after explicit Shutdown): the first
    // call already drained everything.
    return;
  }
  // Unblock accept() by closing the listening socket.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  // Half-close every active connection: a worker blocked in recv() sees
  // EOF and finishes, while responses already being written (the write
  // side stays open) still reach the client. SHUT_RD does not wake a
  // worker blocked in send(); SO_SNDTIMEO bounds that wait instead.
  {
    MutexLock lock(active_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  pool_->Wait();
  pool_.reset();
  WSD_LOG(kInfo) << "wsdd drained and stopped";
}

}  // namespace wsd
