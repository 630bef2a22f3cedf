#include "openloop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <memory>
#include <string>
#include <thread>

#include "net/wire.h"

namespace stackbench {

namespace api = itag::api;
namespace net = itag::net;

namespace {

/// Owns one connected loopback socket.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  bool SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
  int fd() const { return fd_; }
  std::string inbuf;

 private:
  int fd_ = -1;
};

int64_t Ticks(Clock::time_point t) { return t.time_since_epoch().count(); }

}  // namespace

OpenLoopResult RunOpenLoop(uint16_t port, size_t connections,
                           const std::vector<api::AnyRequest>& requests,
                           double rate, double timeout_s,
                           std::atomic<uint64_t>* sent_counter,
                           SpanLog* spans) {
  OpenLoopResult result;
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->Connect(port)) {
      result.fails.Attempt();
      result.fails.Fail(FailKind::kTransport);
      return result;
    }
  }
  const auto period =
      std::chrono::nanoseconds(static_cast<int64_t>(1e9 / rate));
  OpenLoopTimer timer(Clock::now() + std::chrono::milliseconds(2), period);
  // Send times, published for the receiver's spans.
  std::vector<std::atomic<int64_t>> send_ticks(requests.size());
  std::atomic<size_t> sent{0};
  std::atomic<bool> send_failed{false};

  std::thread sender([&] {
    for (size_t i = 0; i < requests.size(); ++i) {
      Clock::time_point due = timer.Due(i);
      // Sleep most of the gap, then spin, so sends leave on time.
      if (due - Clock::now() > std::chrono::microseconds(200)) {
        std::this_thread::sleep_until(due - std::chrono::microseconds(100));
      }
      while (Clock::now() < due) {
      }
      std::string frame = net::EncodeRequestFrame(i + 1, requests[i]);
      Clock::time_point t = Clock::now();
      send_ticks[i].store(Ticks(t), std::memory_order_relaxed);
      if (!conns[i % conns.size()]->SendAll(frame)) {
        send_failed.store(true);
        return;
      }
      timer.Sent(i, t);
      sent.store(i + 1, std::memory_order_release);
      sent_counter->fetch_add(1);
    }
  });

  std::vector<pollfd> fds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    fds[c] = {conns[c]->fd(), POLLIN, 0};
  }
  const Clock::time_point deadline =
      timer.Due(requests.size()) +
      std::chrono::milliseconds(static_cast<int64_t>(timeout_s * 1e3));
  size_t received = 0;
  bool broken = false;
  char buf[65536];
  while (!broken && Clock::now() < deadline) {
    size_t target = send_failed.load() ? sent.load() : requests.size();
    if (received >= target) break;
    if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
    for (size_t c = 0; c < conns.size() && !broken; ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      ssize_t n = ::recv(conns[c]->fd(), buf, sizeof(buf), 0);
      if (n <= 0) {
        broken = n == 0 || errno != EINTR;
        continue;
      }
      Clock::time_point now = Clock::now();
      std::string& in = conns[c]->inbuf;
      in.append(buf, static_cast<size_t>(n));
      size_t parsed = 0;
      for (;;) {
        net::Frame frame;
        size_t used = 0;
        if (!net::TryDecodeFrame(std::string_view(in).substr(parsed), &frame,
                                 &used)
                 .ok()) {
          broken = true;
          break;
        }
        if (used == 0) break;
        parsed += used;
        size_t i = frame.correlation - 1;
        if (frame.correlation == 0 || i >= requests.size()) continue;
        ++received;
        result.fails.Attempt();
        timer.Done(i, now);
        spans->Add({"query", spans->NewId(), 0, i,
                    Clock::time_point(Clock::duration(
                        send_ticks[i].load(std::memory_order_relaxed))),
                    now});
        api::AnyResponse reply;
        if (frame.kind == net::FrameKind::kError) {
          result.fails.Fail(FailKind::kTypedError);
        } else if (!net::DecodeResponsePayload(frame.type, frame.payload,
                                               &reply)
                        .ok()) {
          result.fails.Fail(FailKind::kTransport);
        } else {
          result.fails.CheckReply(reply);
        }
      }
      in.erase(0, parsed);
    }
  }
  sender.join();
  result.sent = sent.load();
  // Requests sent but never answered failed in transport.
  for (size_t i = received; i < result.sent; ++i) {
    result.fails.Attempt();
    result.fails.Fail(FailKind::kTransport);
  }
  if (result.sent < requests.size()) {
    result.fails.Attempt();
    result.fails.Fail(FailKind::kTransport);
  }
  result.latencies_us = timer.latencies_us();
  result.lateness_us = timer.lateness_us();
  return result;
}

}  // namespace stackbench
