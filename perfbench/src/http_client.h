// Minimal blocking HTTP/1.1 client for the loopback load generator: one
// request per connection, as the server speaks it.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;  // 0: transport failure
  std::string body;
  size_t bytes = 0;        // whole response, headers included
  double connect_us = 0;   // TCP connect time
};

// POSTs `body` to 127.0.0.1:`port``target` and reads the reply to EOF.
HttpReply Post(int port, const std::string& target, const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
