#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "trace.h"

namespace perfbench {

namespace {

// Closes the socket on every path out of Post.
struct Socket {
  int fd;
  ~Socket() {
    if (fd >= 0) ::close(fd);
  }
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

HttpReply Post(int port, const std::string& target, const std::string& body) {
  HttpReply reply;
  Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (sock.fd < 0) return reply;
  const int one = 1;
  ::setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const Clock::time_point start = Clock::now();
  if (::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return reply;
  }
  reply.connect_us = MsSince(start) * 1000.0;
  const std::string request = "POST " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n" + body;
  if (!SendAll(sock.fd, request)) return reply;
  std::string raw;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(sock.fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return reply;
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  const size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  reply.bytes = raw.size();
  return reply;
}

}  // namespace perfbench
