#include "serve_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {
namespace {

/// A reply that takes longer than this is reported missing. Generous: a
/// second connection's first request waits out the whole first connection
/// while `h2h serve` accepts one connection at a time.
constexpr int kReadTimeoutMs = 150'000;

/// Reads one '\n'-terminated line from `fd` into `line` (without the
/// newline), keeping any bytes past it in `buf`. False on EOF, error or
/// timeout.
bool read_line(int fd, std::string& buf, std::string& line, int timeout_ms) {
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t nl = buf.find('\n', scanned);
    if (nl != std::string::npos) {
      line.assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    scanned = buf.size();
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  // The client's own socket only: the server's sockets keep their
  // defaults, so a transport stall the server causes stays visible.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::vector<Exchange> closed_loop(int port, const std::vector<WireLine>& seq,
                                  Clock::time_point& done,
                                  const SegmentHook& between = {}) {
  std::vector<Exchange> out(seq.size());
  const int fd = connect_loopback(port);
  if (fd >= 0) {
    std::string buf;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      out[i].sent = t0;
      if (!send_all(fd, seq[i].line + '\n') ||
          !read_line(fd, buf, out[i].response, kReadTimeoutMs)) {
        break;
      }
      out[i].latency_s =
          std::chrono::duration<double>(Clock::now() - t0).count();
      out[i].answered = true;
      if (between && ((i + 1) % kSegmentRequests == 0 || i + 1 == seq.size())) {
        between(i - i % kSegmentRequests, i + 1);
      }
    }
    ::close(fd);
  }
  done = Clock::now();
  return out;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary, int max_connections) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  const std::string conns = std::to_string(max_connections);
  const char* argv[] = {binary.c_str(), "serve",  "--tcp",
                        "0",            "--threads", "2",
                        "--max-connections", conns.c_str(), nullptr};
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  stderr_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(stderr_fd_);
    throw std::runtime_error("posix_spawn " + binary + ": " +
                             std::strerror(rc));
  }

  // Readiness: the announcement line, read with a blocking poll.
  const std::string prefix = "h2h-serve listening on 127.0.0.1:";
  std::string buf;
  std::string line;
  while (port_ == 0 && read_line(stderr_fd_, buf, line, 60'000)) {
    diag_ += line + '\n';
    if (line.starts_with(prefix)) {
      port_ = std::atoi(line.c_str() + prefix.size());
    }
  }
  if (port_ == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    ::close(stderr_fd_);
    throw std::runtime_error("h2h serve did not announce a port: " + diag_);
  }
  diag_ += buf;
  drain_ = std::thread([this] {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(stderr_fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      diag_.append(chunk, static_cast<std::size_t>(n));
    }
  });
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  if (drain_.joinable()) drain_.join();
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

ServerProcess::Exit ServerProcess::wait() {
  Exit e;
  int status = 0;
  rusage ru{};
  // The server exits by itself after its last connection; one that has not
  // within a minute is killed and reported unclean. The wait blocks on a
  // pidfd rather than sleep-polling: an idle gap before the next set-up
  // spawn doubled serve-cold's spawn -> listening time (~0.55 -> ~1.1 ms).
  // Without pidfd_open (Linux < 5.3) the wait blocks without a time limit.
  int flags = 0;
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
  if (pidfd >= 0) {
    pollfd p{pidfd, POLLIN, 0};
    while (::poll(&p, 1, 60'000) < 0 && errno == EINTR) {
    }
    ::close(pidfd);
    flags = WNOHANG;
  }
  pid_t r = 0;
  while ((r = ::wait4(pid_, &status, flags, &ru)) < 0 && errno == EINTR) {
  }
  if (r <= 0) {
    ::kill(pid_, SIGKILL);
    while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    status = -1;
  }
  pid_ = -1;
  if (drain_.joinable()) drain_.join();
  ::close(stderr_fd_);
  stderr_fd_ = -1;

  e.clean = r > 0 && status >= 0 && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0;
  e.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  e.diag = diag_;
  // "h2h-serve: served N connection(s), K accept retries" at shutdown; a
  // listener that gave up reports "h2h-serve: accept: ...".
  const std::size_t at = diag_.find(" connection(s), ");
  e.accept_retries =
      at == std::string::npos ? -1 : std::atoi(diag_.c_str() + at + 16);
  if (diag_.find("h2h-serve: accept:") != std::string::npos) {
    e.accept_retries = std::max(e.accept_retries, 1);
  }
  return e;
}

std::vector<std::vector<Exchange>> run_closed_loops(
    int port, const std::vector<std::vector<WireLine>>& sequences,
    double& wall_s) {
  std::vector<std::vector<Exchange>> out(sequences.size());
  std::vector<Clock::time_point> done(sequences.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < sequences.size(); ++c) {
    threads.emplace_back([&, c] {
      out[c] = closed_loop(port, sequences[c], done[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  wall_s = std::chrono::duration<double>(
               *std::max_element(done.begin(), done.end()) - start)
               .count();
  return out;
}

std::vector<Exchange> run_paced_loop(int port, const std::vector<WireLine>& seq,
                                     const SegmentHook& between,
                                     double& wall_s) {
  const Clock::time_point start = Clock::now();
  Clock::time_point done;
  std::vector<Exchange> out = closed_loop(port, seq, done, between);
  wall_s = std::chrono::duration<double>(done - start).count();
  return out;
}

}  // namespace perfbench
