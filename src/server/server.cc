#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/json.h"

namespace gerel {
namespace server {

namespace {

// recv timeout: the granularity at which blocked readers notice
// Shutdown().
constexpr int kPollMs = 200;

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
#ifdef MSG_NOSIGNAL
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
#else
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // Peer went away; the connection is done.
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Status SocketServer::Start() {
  if (started_) return Status::Error("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error("invalid listen host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status s = Status::Error(std::string("bind ") + options_.host + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status s = Status::Error(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  started_ = true;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  size_t workers = options_.num_workers == 0 ? 1 : options_.num_workers;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void SocketServer::Shutdown() {
  if (!started_) return;
  {
    // Set under the queue mutex: a worker that has checked its wait
    // predicate but not yet blocked would otherwise miss the wake-up
    // below and never return, hanging the join.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true);
  }
  if (listen_fd_ >= 0) {
    // Unblocks the accept poll; the loop exits on the flag.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Connections accepted but never picked up by a worker.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;  // Timeout or EINTR; re-check the flag.
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // A bounded recv timeout lets connection owners notice Shutdown()
    // even while their peer is idle.
    timeval tv{0, kPollMs * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void SocketServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping_ and nothing queued.
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void SocketServer::ServeConnection(int fd) {
  std::string buf;
  size_t scan_from = 0;
  // After an oversized frame, bytes are discarded until its newline so
  // the session can resynchronize.
  bool draining_oversized = false;
  char chunk[65536];
  while (true) {
    // Serve every complete line already buffered.
    size_t nl;
    while ((nl = buf.find('\n', scan_from)) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      scan_from = 0;
      if (draining_oversized) {
        draining_oversized = false;
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        if (!SendAll(fd, EncodeProtocolError(
                             kErrOversized,
                             "request line exceeds " +
                                 std::to_string(options_.max_line_bytes) +
                                 " bytes") +
                             "\n")) {
          return;
        }
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // Blank keep-alive lines are skipped.
      if (line.size() > options_.max_line_bytes) {
        // The whole frame arrived before the streaming cap could
        // trigger; report it just like a drained one.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        if (!SendAll(fd, EncodeProtocolError(
                             kErrOversized,
                             "request line exceeds " +
                                 std::to_string(options_.max_line_bytes) +
                                 " bytes") +
                             "\n")) {
          return;
        }
        continue;
      }
      std::string response;
      Result<JsonValue> frame = JsonValue::Parse(line);
      if (!frame.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        response = EncodeProtocolError(kErrBadRequest,
                                       frame.status().message());
      } else {
        Result<WireRequest> req = DecodeRequest(frame.value());
        if (!req.ok()) {
          // DecodeRequest encodes "<code>: <detail>" in the message.
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          const std::string& m = req.status().message();
          size_t sep = m.find(": ");
          std::string code =
              sep == std::string::npos ? kErrBadRequest : m.substr(0, sep);
          std::string detail =
              sep == std::string::npos ? m : m.substr(sep + 2);
          response = EncodeProtocolError(code, detail);
        } else {
          DispatchOutcome outcome = dispatcher_->Dispatch(req.value());
          requests_.fetch_add(1, std::memory_order_relaxed);
          response = EncodeResponse(outcome, req.value().has_id,
                                    req.value().id);
        }
      }
      response += "\n";
      if (!SendAll(fd, response)) return;
    }
    // The request in flight always finishes (response flushed above);
    // between requests, shutdown closes the connection.
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (buf.size() > options_.max_line_bytes) {
      // Too long with no newline yet: discard what we have and keep
      // discarding until the frame ends.
      draining_oversized = true;
      buf.clear();
      scan_from = 0;
    } else {
      scan_from = buf.size();
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return;  // EOF; a partial frame is dropped by design.
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // recv timeout: loop to re-check stopping_.
      }
      return;
    }
    if (draining_oversized) {
      // Only keep the tail that might contain the terminating newline.
      const char* end = chunk + n;
      const char* found =
          static_cast<const char*>(std::memchr(chunk, '\n', n));
      if (found != nullptr) {
        buf.append(found, end);
      }
      scan_from = 0;
      continue;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace server
}  // namespace gerel
