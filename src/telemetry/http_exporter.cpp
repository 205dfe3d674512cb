#include "telemetry/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bandslim::telemetry {

namespace {

// Upper bound on an accepted request (method + path + headers). Anything
// larger is not a scrape and gets dropped.
constexpr std::size_t kMaxRequestBytes = 8192;
// Accept-loop poll period: how quickly Stop() is noticed.
constexpr int kPollMs = 50;

bool SendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// `head_only` sends the full header block — including the Content-Length the
// body WOULD have — but suppresses the body itself: HEAD semantics.
// `extra_header` is a complete "Name: value" line or null.
void SendResponse(int fd, const char* status_line, const char* content_type,
                  const std::string& body, bool head_only = false,
                  const char* extra_header = nullptr) {
  std::string head = "HTTP/1.1 ";
  head += status_line;
  head += "\r\nContent-Type: ";
  head += content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(body.size());
  if (extra_header != nullptr) {
    head += "\r\n";
    head += extra_header;
  }
  head += "\r\nConnection: close\r\n\r\n";
  if (SendAll(fd, head.data(), head.size()) && !head_only) {
    SendAll(fd, body.data(), body.size());
  }
}

// Method + path of one request; empty method = malformed/oversized input.
struct RequestLine {
  std::string method;
  std::string path;
};

RequestLine ReadRequestLine(int fd) {
  std::string req;
  char buf[1024];
  while (req.find("\r\n\r\n") == std::string::npos &&
         req.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  RequestLine line;
  const std::size_t method_end = req.find(' ');
  if (method_end == std::string::npos || method_end == 0) return line;
  const std::size_t path_end = req.find(' ', method_end + 1);
  if (path_end == std::string::npos) return line;
  const std::string method = req.substr(0, method_end);
  // A method token is ASCII upper-case letters; anything else is garbage,
  // not a verb worth a 405.
  for (char c : method) {
    if (c < 'A' || c > 'Z') return line;
  }
  line.method = method;
  line.path = req.substr(method_end + 1, path_end - method_end - 1);
  return line;
}

}  // namespace

HttpExporter::~HttpExporter() { Stop(); }

Status HttpExporter::Start(std::uint16_t port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("http exporter already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                           err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + err);
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ServeLoop(); });
  return Status::Ok();
}

void HttpExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpExporter::Publish(std::shared_ptr<const PublishedSnapshot> snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_ = std::move(snapshot);
}

std::shared_ptr<const PublishedSnapshot> HttpExporter::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

void HttpExporter::ServeLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    ::close(conn);
  }
}

void HttpExporter::HandleConnection(int fd) {
  const RequestLine req = ReadRequestLine(fd);
  requests_served_.fetch_add(1, std::memory_order_acq_rel);
  if (req.method.empty()) {
    SendResponse(fd, "400 Bad Request", "text/plain; charset=utf-8",
                 "bad request\n");
    return;
  }
  if (req.method != "GET" && req.method != "HEAD") {
    SendResponse(fd, "405 Method Not Allowed", "text/plain; charset=utf-8",
                 "method not allowed\n", /*head_only=*/false,
                 "Allow: GET, HEAD");
    return;
  }
  // HEAD is GET with the body suppressed: identical routing, identical
  // status and headers (Content-Length included), zero body bytes.
  const bool head_only = req.method == "HEAD";
  const std::shared_ptr<const PublishedSnapshot> snap = Current();
  if (snap == nullptr) {
    // Liveness is meaningful before the first sample; data is not.
    if (req.path == "/healthz") {
      SendResponse(fd, "200 OK", "application/json",
                   "{\"status\":\"starting\"}\n", head_only);
    } else {
      SendResponse(fd, "503 Service Unavailable", "text/plain; charset=utf-8",
                   "no snapshot published yet\n", head_only);
    }
    return;
  }
  const Route* route = snap->Find(req.path);
  if (route == nullptr) {
    SendResponse(fd, "404 Not Found", "text/plain; charset=utf-8",
                 "unknown path\n", head_only);
    return;
  }
  SendResponse(fd, "200 OK", route->content_type.c_str(), route->body,
               head_only);
}

Result<std::string> HttpRequestRaw(std::uint16_t port,
                                   const std::string& method,
                                   const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("connect 127.0.0.1:" + std::to_string(port) +
                           ": " + err);
  }
  const std::string req = method + " " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  if (!SendAll(fd, req.data(), req.size())) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("send: " + err);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (response.find("\r\n\r\n") == std::string::npos) {
    return Status::IoError("malformed HTTP response");
  }
  return response;
}

Result<std::string> HttpGet(std::uint16_t port, const std::string& path) {
  Result<std::string> raw = HttpRequestRaw(port, "GET", path);
  if (!raw.ok()) return raw.status();
  const std::string& response = raw.value();
  if (response.compare(0, 12, "HTTP/1.1 200") != 0) {
    return Status::IoError("HTTP error: " +
                           response.substr(0, response.find("\r\n")));
  }
  return response.substr(response.find("\r\n\r\n") + 4);
}

}  // namespace bandslim::telemetry
