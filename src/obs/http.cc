#include "obs/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <utility>

#include "obs/metrics.h"

namespace isrec::obs {
namespace {

// Caps one request's header block + body; recommend payloads are a few
// KB of history ids, so anything larger is garbage or abuse.
constexpr size_t kMaxRequestBytes = 256 * 1024;
constexpr int kSocketTimeoutS = 5;
// Accepted-but-unserved connections the server will hold before it
// starts closing new ones (backpressure to the kernel, not unbounded
// memory).
constexpr size_t kMaxPendingConnections = 1024;
// How long a worker waits for the NEXT request on a kept-alive
// connection before closing it. Short on purpose: an idle keep-alive
// peer must not pin a worker that other connections are queueing for.
constexpr int kKeepAliveIdleMs = 500;

void SetSocketTimeoutsMs(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Turns off Nagle's algorithm: requests and responses are written
/// whole, so holding a segment back only adds the peer's ACK delay.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Writes all of `data`, swallowing SIGPIPE (the peer may hang up).
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

char HexNibble(char c) {
  if (c >= '0' && c <= '9') return static_cast<char>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<char>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<char>(c - 'A' + 10);
  return -1;
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const char hi = HexNibble(s[i + 1]);
      const char lo = HexNibble(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
  }
  return out;
}

/// Parses "GET /path?a=1&b=2 HTTP/1.1" into `out`; false on malformed
/// request lines (no two spaces, empty path, ...).
bool ParseRequestLine(const std::string& line, HttpRequest* out) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) return false;
  out->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  const size_t qmark = target.find('?');
  out->path = UrlDecode(target.substr(0, qmark));
  if (qmark != std::string::npos) {
    std::string qs = target.substr(qmark + 1);
    size_t pos = 0;
    while (pos <= qs.size()) {
      size_t amp = qs.find('&', pos);
      if (amp == std::string::npos) amp = qs.size();
      const std::string pair = qs.substr(pos, amp - pos);
      if (!pair.empty()) {
        const size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          out->query[UrlDecode(pair)] = "";
        } else {
          out->query[UrlDecode(pair.substr(0, eq))] =
              UrlDecode(pair.substr(eq + 1));
        }
      }
      pos = amp + 1;
    }
  }
  return true;
}

/// Parses a request header block (everything after the request line)
/// into `out`: names lowercased, values trimmed, first occurrence of a
/// repeated name wins. `headers` is the raw block INCLUDING the request
/// line; the first line is skipped.
void ParseHeaderBlock(const std::string& headers,
                      std::map<std::string, std::string>* out) {
  size_t pos = headers.find("\r\n");
  pos = pos == std::string::npos ? headers.size() : pos + 2;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    const std::string line = headers.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    std::string value = line.substr(colon + 1);
    const size_t first = value.find_first_not_of(" \t");
    const size_t last = value.find_last_not_of(" \t");
    value = first == std::string::npos
                ? std::string()
                : value.substr(first, last - first + 1);
    out->emplace(std::move(name), std::move(value));
  }
}

/// Monotonic milliseconds for keep-alive pool idle-age tracking.
int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Case-insensitive "Content-Length: N" lookup within a header block;
/// -1 when absent or malformed.
long ContentLength(const std::string& headers) {
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    const std::string line = headers.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      if (name == "content-length") {
        return std::atol(line.c_str() + colon + 1);
      }
    }
    pos = eol + 2;
  }
  return -1;
}

/// Case-insensitive scan of a header block for `name: value` (value
/// compared after trimming surrounding spaces, case-insensitively).
bool HeaderEquals(const std::string& headers, const std::string& name,
                  const std::string& value) {
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    const std::string line = headers.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string got_name = line.substr(0, colon);
      for (char& c : got_name) c = static_cast<char>(std::tolower(c));
      if (got_name == name) {
        std::string got_value = line.substr(colon + 1);
        const size_t first = got_value.find_first_not_of(" \t");
        const size_t last = got_value.find_last_not_of(" \t");
        if (first == std::string::npos) return value.empty();
        got_value = got_value.substr(first, last - first + 1);
        for (char& c : got_value) c = static_cast<char>(std::tolower(c));
        return got_value == value;
      }
    }
    pos = eol + 2;
  }
  return false;
}

/// Waits up to `timeout_ms` for `fd` to become readable.
bool WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc > 0;
}

/// Connects to host:port with a bounded connect timeout (non-blocking
/// connect + poll), then restores blocking mode with read/send
/// timeouts. Returns the fd, or -1 with `error` filled.
int ConnectWithTimeout(const std::string& host, int port,
                       const HttpClientOptions& options, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host '" + host + "' (IPv4 dotted quad expected)";
    ::close(fd);
    return -1;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      *error = std::string("connect: ") + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, options.connect_timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      *error = rc == 0 ? "connect timeout"
                       : std::string("poll: ") + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      *error = std::string("connect: ") + std::strerror(so_error);
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  SetSocketTimeoutsMs(fd, options.read_timeout_ms);
  return fd;
}

}  // namespace

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::Start(const std::string& bind_address, int port,
                       HttpHandler handler, int num_workers) {
  if (listen_fd_ >= 0) return false;  // Already started.
  handler_ = std::move(handler);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "[obs] http: socket() failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "[obs] http: bad bind address '%s'\n",
                 bind_address.c_str());
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::fprintf(stderr, "[obs] http: cannot bind %s:%d: %s\n",
                 bind_address.c_str(), port, std::strerror(errno));
    ::close(fd);
    return false;
  }
  if (::listen(fd, 128) != 0) {
    std::fprintf(stderr, "[obs] http: listen() failed: %s\n",
                 std::strerror(errno));
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_ = fd;
  stopping_ = false;
  const int workers = num_workers < 1 ? 1 : num_workers;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) return;
  // shutdown() wakes the blocked accept() (which then fails and exits
  // the loop); close after the join so the fd can't be reused while the
  // accept thread still references it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Workers drain pending_fds_ before exiting; anything still queued
  // (stopping_ raced an accept) is closed unanswered.
  for (int fd : pending_fds_) ::close(fd);
  pending_fds_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // Listener shut down (EINVAL) or broken: stop accepting.
    }
    SetSocketTimeoutsMs(fd, kSocketTimeoutS * 1000);
    SetNoDelay(fd);
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_fds_.size() < kMaxPendingConnections) {
        pending_fds_.push_back(fd);
        queued = true;
      }
    }
    if (queued) {
      queue_cv_.notify_one();
    } else {
      ::close(fd);  // Saturated: shed at the door rather than queue forever.
      if (MetricsEnabled()) {
        static Counter& overflow = GetCounter("http.overflow_closed");
        overflow.Add(1);
      }
    }
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stopping_ || !pending_fds_.empty(); });
      if (!pending_fds_.empty()) {
        fd = pending_fds_.front();
        pending_fds_.pop_front();
      } else if (stopping_) {
        return;
      }
    }
    if (fd >= 0) {
      ServeConnection(fd);
      ::close(fd);
    }
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string raw;       // Carries pipelined bytes across requests.
  bool first_request = true;
  char chunk[4096];
  for (;;) {
    // Read until the full header block has arrived.
    size_t header_end = std::string::npos;
    while ((header_end = raw.find("\r\n\r\n")) == std::string::npos) {
      if (raw.size() > kMaxRequestBytes) return;
      if (!first_request && raw.empty() &&
          !WaitReadable(fd, kKeepAliveIdleMs)) {
        return;  // Idle kept-alive peer: give the worker back.
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;  // Timeout or hangup before a full request arrived.
      }
      raw.append(chunk, static_cast<size_t>(n));
    }

    HttpResponse response;
    HttpRequest request;
    const std::string headers = raw.substr(0, header_end);
    const std::string request_line = raw.substr(0, raw.find("\r\n"));
    size_t consumed = header_end + 4;
    bool run_handler = false;
    bool parse_failed = false;
    if (!ParseRequestLine(request_line, &request)) {
      response.status = 400;
      response.body = "bad request\n";
      parse_failed = true;  // Framing unknown: must close after answering.
    } else {
      ParseHeaderBlock(headers, &request.headers);
      if (request.method == "POST" || request.method == "PUT") {
        // Read the Content-Length body (the rest may already be
        // buffered).
        const std::string length_value =
            request.HeaderOr("content-length", "");
        const long content_length =
            length_value.empty() ? -1 : std::atol(length_value.c_str());
        const size_t body_start = header_end + 4;
        if (content_length < 0 ||
            static_cast<size_t>(content_length) > kMaxRequestBytes) {
          response.status = 400;
          response.body = "POST/PUT requires a bounded Content-Length\n";
          parse_failed = true;
        } else {
          while (raw.size() - body_start <
                 static_cast<size_t>(content_length)) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) {
              if (n < 0 && errno == EINTR) continue;
              return;  // Body never arrived; nothing sensible to answer.
            }
            raw.append(chunk, static_cast<size_t>(n));
          }
          request.body =
              raw.substr(body_start, static_cast<size_t>(content_length));
          consumed = body_start + static_cast<size_t>(content_length);
          run_handler = true;
        }
      } else if (request.method != "GET" && request.method != "HEAD") {
        response.status = 405;
        response.body = "only GET, HEAD, POST, and PUT are supported\n";
      } else {
        run_handler = true;
      }
    }
    // Keep-alive is opt-in per request: only an explicit header keeps
    // the connection, so every pre-existing client (curl, the prober,
    // one-shot HttpGet) still gets the historical one-request behavior.
    std::string connection_value = request.HeaderOr("connection", "");
    for (char& c : connection_value) c = static_cast<char>(std::tolower(c));
    const bool keep_alive = !parse_failed && connection_value == "keep-alive";
    if (run_handler) {
      try {
        response = handler_(request);
      } catch (const std::exception& e) {
        response = HttpResponse{};
        response.status = 500;
        response.body = std::string("handler error: ") + e.what() + "\n";
      } catch (...) {
        response = HttpResponse{};
        response.status = 500;
        response.body = "handler error\n";
      }
    }
    if (MetricsEnabled()) {
      static Counter& requests = GetCounter("http.requests");
      requests.Add(1);
      if (!first_request) {
        static Counter& reuses = GetCounter("http.keepalive_reuses");
        reuses.Add(1);
      }
    }

    // Header and body leave in one write: a second small write on a
    // kept-alive connection would wait for the peer's delayed ACK.
    char header[256];
    std::snprintf(header, sizeof(header),
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: %s\r\n"
                  "\r\n",
                  response.status, StatusText(response.status),
                  response.content_type.c_str(), response.body.size(),
                  keep_alive ? "keep-alive" : "close");
    std::string wire = header;
    if (request.method != "HEAD") wire += response.body;
    if (!SendAll(fd, wire.data(), wire.size())) return;
    if (!keep_alive) return;
    raw.erase(0, consumed);
    first_request = false;
  }
}

HttpClient::~HttpClient() {
  for (const auto& [key, conn] : pool_) ::close(conn.fd);
}

size_t HttpClient::pooled_connections() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

int HttpClient::TakePooled(const std::string& host, int port) {
  int stale_fd = -1;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    auto it = pool_.find({host, port});
    if (it == pool_.end()) return -1;
    // A connection idled past the server's close window is almost
    // certainly dead on arrival: reusing it pays a doomed send plus the
    // stale-retry reconnect. Close it here and let the caller open a
    // fresh connection directly.
    if (options_.keepalive_max_idle_ms > 0 &&
        SteadyNowMs() - it->second.last_use_ms >
            options_.keepalive_max_idle_ms) {
      stale_fd = it->second.fd;
    } else {
      fd = it->second.fd;
    }
    pool_.erase(it);
  }
  if (stale_fd >= 0) {
    ::close(stale_fd);
    if (MetricsEnabled()) {
      static Counter& avoided = GetCounter("http.keepalive_stale_avoided");
      avoided.Add(1);
    }
  }
  return fd;
}

void HttpClient::ReturnPooled(const std::string& host, int port, int fd) {
  const PooledConnection conn{fd, SteadyNowMs()};
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    // One pooled connection per peer: if a concurrent request already
    // parked one, the younger connection is the one we drop.
    if (pool_.emplace(std::make_pair(host, port), conn).second) return;
  }
  ::close(fd);
}

HttpClient::Result HttpClient::Get(const std::string& host, int port,
                                   const std::string& target, int timeout_ms,
                                   const HttpHeaderList& extra_headers) {
  return Fetch(host, port, target, "GET", "", "", timeout_ms, extra_headers);
}

HttpClient::Result HttpClient::Post(const std::string& host, int port,
                                    const std::string& target,
                                    const std::string& content_type,
                                    const std::string& request_body,
                                    int timeout_ms,
                                    const HttpHeaderList& extra_headers) {
  return Fetch(host, port, target, "POST", content_type, request_body,
               timeout_ms, extra_headers);
}

namespace {

/// One request/response exchange on an already-connected fd. On success
/// fills status/body and sets `poolable` when the response was
/// Content-Length framed AND advertised keep-alive; on failure fills
/// `error` (the caller decides whether a failure on a REUSED connection
/// warrants a fresh-connection retry).
bool ExchangeOnFd(int fd, const std::string& request, bool* poolable,
                  int* status, std::string* body, std::string* error) {
  *poolable = false;
  if (!SendAll(fd, request.data(), request.size())) {
    *error = std::string("send: ") + std::strerror(errno);
    return false;
  }
  std::string raw;
  char chunk[4096];
  size_t header_end = std::string::npos;
  while ((header_end = raw.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *error = errno == EAGAIN || errno == EWOULDBLOCK
                   ? "read timeout"
                   : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      *error = "peer closed before response headers";
      return false;
    }
    raw.append(chunk, static_cast<size_t>(n));
  }

  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  if (raw.rfind("HTTP/1.", 0) != 0) {
    *error = "malformed response";
    return false;
  }
  const size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) {
    *error = "malformed status line";
    return false;
  }
  const int parsed_status = std::atoi(raw.c_str() + sp + 1);
  if (parsed_status < 100) {
    *error = "malformed status code";
    return false;
  }
  const std::string headers = raw.substr(0, header_end);
  const size_t body_start = header_end + 4;
  const long content_length = ContentLength(headers);
  if (content_length >= 0) {
    // Framed response: read exactly the advertised body, leaving the
    // connection positioned at the next response — reusable.
    while (raw.size() - body_start < static_cast<size_t>(content_length)) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        *error = n == 0 ? "peer closed mid-body"
                        : (errno == EAGAIN || errno == EWOULDBLOCK
                               ? "read timeout"
                               : std::string("recv: ") +
                                     std::strerror(errno));
        return false;
      }
      raw.append(chunk, static_cast<size_t>(n));
    }
    *body = raw.substr(body_start, static_cast<size_t>(content_length));
    *poolable = HeaderEquals(headers, "connection", "keep-alive");
  } else {
    // Unframed: the peer delimits the body by closing — drain to EOF.
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        *error = errno == EAGAIN || errno == EWOULDBLOCK
                     ? "read timeout"
                     : std::string("recv: ") + std::strerror(errno);
        return false;
      }
      if (n == 0) break;
      raw.append(chunk, static_cast<size_t>(n));
    }
    *body = raw.substr(body_start);
  }
  *status = parsed_status;
  return true;
}

}  // namespace

HttpClient::Result HttpClient::Fetch(const std::string& host, int port,
                                     const std::string& target,
                                     const char* method,
                                     const std::string& content_type,
                                     const std::string& request_body,
                                     int timeout_ms,
                                     const HttpHeaderList& extra_headers) {
  Result result;
  HttpClientOptions options = options_;
  if (timeout_ms > 0) {
    options.connect_timeout_ms =
        std::min(options.connect_timeout_ms, timeout_ms);
    options.read_timeout_ms = std::min(options.read_timeout_ms, timeout_ms);
  }

  std::string request =
      std::string(method) + " " + target + " HTTP/1.1\r\nHost: " + host +
      "\r\nConnection: " +
      (options_.keep_alive ? "keep-alive" : "close") + "\r\n";
  for (const auto& [name, value] : extra_headers) {
    request += name + ": " + value + "\r\n";
  }
  if (std::strcmp(method, "POST") == 0) {
    request += "Content-Type: " +
               (content_type.empty() ? "application/octet-stream"
                                     : content_type) +
               "\r\nContent-Length: " + std::to_string(request_body.size()) +
               "\r\n";
  }
  request += "\r\n";
  request += request_body;

  for (int attempt = 0; attempt < 2; ++attempt) {
    bool reused = false;
    int fd = -1;
    if (options_.keep_alive) {
      fd = TakePooled(host, port);
      reused = fd >= 0;
    }
    if (fd < 0) {
      fd = ConnectWithTimeout(host, port, options, &result.error);
      if (fd < 0) return result;
    } else {
      // The pooled fd carries the timeouts of whichever call created
      // it; re-arm for this call's budget.
      SetSocketTimeoutsMs(fd, options.read_timeout_ms);
    }
    bool poolable = false;
    std::string error;
    if (ExchangeOnFd(fd, request, &poolable, &result.status, &result.body,
                     &error)) {
      if (options_.keep_alive && poolable) {
        ReturnPooled(host, port, fd);
      } else {
        ::close(fd);
      }
      result.ok = true;
      result.error.clear();
      return result;
    }
    ::close(fd);
    if (!reused) {
      result.error = error;
      return result;
    }
    // The reused connection was stale (closed or wedged since it was
    // pooled): retry exactly once on a fresh connection.
  }
  return result;
}

bool HttpGet(const std::string& host, int port, const std::string& target,
             int* status, std::string* body) {
  HttpClient client;
  const HttpClient::Result result = client.Get(host, port, target);
  if (!result.ok) return false;
  if (status != nullptr) *status = result.status;
  if (body != nullptr) *body = result.body;
  return true;
}

}  // namespace isrec::obs
