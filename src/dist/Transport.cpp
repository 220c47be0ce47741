//===- dist/Transport.cpp - Frame transports (TCP, loopback) ---------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "dist/Transport.h"

#include "dist/Codec.h"

#include <arpa/inet.h>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace veriqec;
using namespace veriqec::dist;

namespace {

// -- TCP ---------------------------------------------------------------------

bool parseHostPort(const std::string &HostPort, sockaddr_in &Addr,
                   std::string &Err, bool AllowPortZero) {
  size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos) {
    Err = "expected host:port, got '" + HostPort + "'";
    return false;
  }
  std::string Host = HostPort.substr(0, Colon);
  const char *PortStr = HostPort.c_str() + Colon + 1;
  char *End = nullptr;
  unsigned long Port = 0;
  if (PortStr[0] >= '0' && PortStr[0] <= '9')
    Port = std::strtoul(PortStr, &End, 10);
  // Digits only, no trailing garbage; port 0 means "ephemeral", which
  // only makes sense for a listener (a connect to port 0 can only be a
  // typo and would otherwise fail with a misleading errno).
  if (End == nullptr || *End != '\0' || Port > 65535 ||
      (Port == 0 && !AllowPortZero)) {
    Err = "bad port in '" + HostPort + "'";
    return false;
  }
  Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (Host.empty() || Host == "*")
    Addr.sin_addr.s_addr = htonl(INADDR_ANY);
  else if (inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Err = "bad IPv4 address '" + Host + "' (hostnames not supported)";
    return false;
  }
  return true;
}

/// One connected TCP socket with frame reassembly. The socket is
/// non-blocking; receive() polls, send() polls for writability and
/// writes the whole frame before returning (frames are small next to
/// solve times, and back-pressure from a slow worker is acceptable).
class TcpLink : public Link {
public:
  explicit TcpLink(int Fd) : Fd(Fd) {
    fcntl(Fd, F_SETFL, fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
    int One = 1;
    setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
  }
  ~TcpLink() override { close(); }

  bool send(std::span<const uint8_t> Payload) override {
    std::lock_guard<std::mutex> Lock(SendMutex);
    if (Closed)
      return false;
    uint8_t Header[4];
    uint32_t N = static_cast<uint32_t>(Payload.size());
    for (int I = 0; I != 4; ++I)
      Header[I] = static_cast<uint8_t>(N >> (8 * I));
    return writeAll(Header, 4) && writeAll(Payload.data(), Payload.size());
  }

  bool receive(std::vector<uint8_t> &Payload, int TimeoutMs) override {
    // Frames fully received before the peer hung up stay readable (same
    // contract as the loopback transport): a worker's final BatchResult
    // or a trailing Shutdown must not vanish with the connection.
    if (popFrame(Payload))
      return true;
    if (Closed)
      return false;
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, TimeoutMs) <= 0)
      return false;
    readAvailable();
    return popFrame(Payload);
  }

  bool closed() const override { return Closed; }

  void close() override {
    Closed = true;
    std::lock_guard<std::mutex> Lock(SendMutex);
    if (!FdClosed) {
      FdClosed = true;
      ::shutdown(Fd, SHUT_RDWR);
      ::close(Fd);
    }
  }

private:
  bool writeAll(const uint8_t *Data, size_t N) {
    size_t Off = 0;
    while (Off < N) {
      // MSG_NOSIGNAL: a peer that died mid-run must surface as EPIPE
      // (link closed -> batches requeued), not kill the process.
      ssize_t W = ::send(Fd, Data + Off, N - Off, MSG_NOSIGNAL);
      if (W > 0) {
        Off += static_cast<size_t>(W);
        continue;
      }
      if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd P{Fd, POLLOUT, 0};
        if (::poll(&P, 1, 10000) <= 0) {
          markClosed();
          return false;
        }
        continue;
      }
      if (W < 0 && errno == EINTR)
        continue;
      markClosed();
      return false;
    }
    return true;
  }

  void readAvailable() {
    uint8_t Buf[64 << 10];
    while (true) {
      ssize_t R = ::read(Fd, Buf, sizeof Buf);
      if (R > 0) {
        RecvBuf.insert(RecvBuf.end(), Buf, Buf + R);
        if (static_cast<size_t>(R) < sizeof Buf)
          return;
        continue;
      }
      if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      if (R < 0 && errno == EINTR)
        continue;
      // EOF or hard error: the peer is gone.
      Closed = true;
      return;
    }
  }

  bool popFrame(std::vector<uint8_t> &Payload) {
    if (RecvBuf.size() < 4)
      return false;
    uint32_t N = 0;
    for (int I = 0; I != 4; ++I)
      N |= static_cast<uint32_t>(RecvBuf[I]) << (8 * I);
    if (N > MaxFrameBytes) {
      // A length this large is a corrupt or hostile prefix; there is no
      // way to resynchronize a byte stream, so drop the link.
      Closed = true;
      return false;
    }
    if (RecvBuf.size() < 4 + static_cast<size_t>(N))
      return false;
    Payload.assign(RecvBuf.begin() + 4, RecvBuf.begin() + 4 + N);
    RecvBuf.erase(RecvBuf.begin(), RecvBuf.begin() + 4 + N);
    return true;
  }

  /// Send-path failure: already under SendMutex.
  void markClosed() {
    Closed = true;
    if (!FdClosed) {
      FdClosed = true;
      ::shutdown(Fd, SHUT_RDWR);
      ::close(Fd);
    }
  }

  int Fd;
  std::mutex SendMutex;
  std::vector<uint8_t> RecvBuf;
  std::atomic<bool> Closed{false};
  bool FdClosed = false; ///< guarded by SendMutex
};

class TcpListener : public Listener {
public:
  TcpListener(int Fd, uint16_t Port) : Fd(Fd), BoundPort(Port) {
    fcntl(Fd, F_SETFL, fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
  }
  ~TcpListener() override { ::close(Fd); }

  std::unique_ptr<Link> accept(int TimeoutMs) override {
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, TimeoutMs) <= 0)
      return nullptr;
    int C = ::accept(Fd, nullptr, nullptr);
    if (C < 0)
      return nullptr;
    return std::make_unique<TcpLink>(C);
  }

  uint16_t port() const override { return BoundPort; }

private:
  int Fd;
  uint16_t BoundPort;
};

// -- Loopback ----------------------------------------------------------------

/// Shared state of one loopback pair: a frame queue per direction.
struct LoopbackCore {
  std::mutex Mutex;
  std::condition_variable Cv;
  std::deque<std::vector<uint8_t>> Queue[2];
  bool Dead[2] = {false, false}; ///< per-end close flag
};

class LoopbackLink : public Link {
public:
  LoopbackLink(std::shared_ptr<LoopbackCore> Core, int End)
      : Core(std::move(Core)), End(End) {}
  ~LoopbackLink() override { close(); }

  bool send(std::span<const uint8_t> Payload) override {
    std::lock_guard<std::mutex> Lock(Core->Mutex);
    if (Core->Dead[End] || Core->Dead[1 - End])
      return false;
    Core->Queue[1 - End].emplace_back(Payload.begin(), Payload.end());
    Core->Cv.notify_all();
    return true;
  }

  bool receive(std::vector<uint8_t> &Payload, int TimeoutMs) override {
    std::unique_lock<std::mutex> Lock(Core->Mutex);
    std::deque<std::vector<uint8_t>> &Q = Core->Queue[End];
    Core->Cv.wait_for(Lock, std::chrono::milliseconds(TimeoutMs), [&] {
      return !Q.empty() || Core->Dead[End] || Core->Dead[1 - End];
    });
    if (Q.empty())
      return false;
    Payload = std::move(Q.front());
    Q.pop_front();
    return true;
  }

  bool closed() const override {
    std::lock_guard<std::mutex> Lock(Core->Mutex);
    // Like TCP: the link is dead once either end hung up, but frames
    // already delivered to our queue stay readable via receive().
    return Core->Dead[End] || Core->Dead[1 - End];
  }

  void close() override {
    std::lock_guard<std::mutex> Lock(Core->Mutex);
    Core->Dead[End] = true;
    Core->Cv.notify_all();
  }

private:
  std::shared_ptr<LoopbackCore> Core;
  int End;
};

} // namespace

std::unique_ptr<Listener> veriqec::dist::listenTcp(const std::string &HostPort,
                                                   std::string &Err) {
  sockaddr_in Addr;
  if (!parseHostPort(HostPort, Addr, Err, /*AllowPortZero=*/true))
    return nullptr;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::strerror(errno);
    return nullptr;
  }
  int One = 1;
  setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0 ||
      ::listen(Fd, 64) != 0) {
    Err = std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  socklen_t Len = sizeof Addr;
  getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  return std::make_unique<TcpListener>(Fd, ntohs(Addr.sin_port));
}

std::unique_ptr<Link> veriqec::dist::connectTcp(const std::string &HostPort,
                                                std::string &Err) {
  sockaddr_in Addr;
  if (!parseHostPort(HostPort, Addr, Err, /*AllowPortZero=*/false))
    return nullptr;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::strerror(errno);
    return nullptr;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    Err = std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  return std::make_unique<TcpLink>(Fd);
}

bool veriqec::dist::validTcpAddress(const std::string &HostPort,
                                    bool AllowPortZero, std::string &Err) {
  sockaddr_in Addr;
  return parseHostPort(HostPort, Addr, Err, AllowPortZero);
}

LoopbackPair veriqec::dist::makeLoopbackPair() {
  auto Core = std::make_shared<LoopbackCore>();
  LoopbackPair Pair;
  Pair.A = std::make_unique<LoopbackLink>(Core, 0);
  Pair.B = std::make_unique<LoopbackLink>(Core, 1);
  return Pair;
}
