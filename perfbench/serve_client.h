// The serve workloads' side of the wire: a spawned `h2h serve --tcp 0`
// process and closed-loop client connections with one request outstanding.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

/// A running `h2h serve --tcp 0 --threads 2 --max-connections N`. The
/// constructor blocks on the server's announcement line (never a
/// sleep-poll); the destructor kills and reaps a server that was not
/// waited for.
class ServerProcess {
 public:
  struct Exit {
    bool clean = false;      // exited with status 0
    int accept_retries = 0;  // from the shutdown summary on stderr
    double max_rss_mib = 0;  // ru_maxrss from wait4
    std::string diag;        // everything the server wrote to stderr
  };

  /// Throws std::runtime_error when the process cannot start or never
  /// announces its port.
  ServerProcess(const std::string& binary, int max_connections);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// Wait for the server to exit on its own (after its last connection).
  [[nodiscard]] Exit wait();

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
  std::string diag_;
  std::thread drain_;  // reads stderr to EOF so the server never blocks
};

/// One request/response exchange as the client saw it.
struct Exchange {
  std::string response;  // the response line without its newline
  double latency_s = 0;  // request write start -> response newline read
  Clock::time_point sent;  // request write start
  bool answered = false;
};

/// Opens one connection per sequence (TCP_NODELAY on the client socket
/// only), runs each as a closed loop on its own thread — the next request
/// is written only after the previous response line arrived — and closes
/// each connection after its last response. Returns the exchanges per
/// sequence, in order; `wall_s` receives the time from the first connect
/// to the last response.
[[nodiscard]] std::vector<std::vector<Exchange>> run_closed_loops(
    int port, const std::vector<std::vector<WireLine>>& sequences,
    double& wall_s);

/// Called with the connection idle after each segment of kSegmentRequests
/// requests (and after a shorter last one): requests [first, last).
using SegmentHook = std::function<void(std::size_t first, std::size_t last)>;

/// One closed-loop connection like run_closed_loops', paused after every
/// segment to run `between` on the calling thread. `wall_s` includes the
/// pauses.
[[nodiscard]] std::vector<Exchange> run_paced_loop(
    int port, const std::vector<WireLine>& seq, const SegmentHook& between,
    double& wall_s);

}  // namespace perfbench
