// End-to-end serve loop (serve/server.h): jsonl in, jsonl out, errors
// answered in-band, multi-threaded output identical to single-threaded,
// tenants requests sharing the loop, eviction from the one bounded session
// cache (the Planner's, which also carries each plan's scenario state), and
// graceful shutdown on signals.
// The ServeTcp family covers serve_tcp's thread per connection: a silent
// or non-reading client stalls nobody, the connection cap, the idle
// timeout, and the signal drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "test_helpers.h"
#include "util/str.h"

#if defined(__unix__) || defined(__APPLE__)
#define H2H_TEST_HAS_SIGNALS 1
#include <arpa/inet.h>
#include <ext/stdio_sync_filebuf.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <thread>
#else
#define H2H_TEST_HAS_SIGNALS 0
#endif

namespace h2h {
namespace {

/// A request line for `model` with the suite's search budget applied, so
/// sanitizer runs stay inside the tier-1 time budget.
[[nodiscard]] std::string request_line(const std::string& model,
                                       double bw_gbps,
                                       const std::string& id = {}) {
  std::string line = R"({"schema_version":1,)";
  if (!id.empty()) line += strformat(R"("id":"%s",)", id.c_str());
  line += strformat(
      R"("model":"%s","bw_gbps":%g,)"
      R"("options":{"time_budget_s":%g},"emit":{"timing":false}})",
      model.c_str(), bw_gbps, testing::search_time_budget());
  return line;
}

/// A repair request against the scenario request_line(model, bw_gbps)
/// plans.
[[nodiscard]] std::string repair_line(const std::string& model, double bw_gbps,
                                      const std::string& id,
                                      const std::string& event, unsigned acc) {
  return strformat(
      R"({"schema_version":1,"id":"%s","model":"%s","bw_gbps":%g,)"
      R"("repair":{"event":"%s","acc":%u},)"
      R"("options":{"time_budget_s":%g},"emit":{"timing":false}})",
      id.c_str(), model.c_str(), bw_gbps, event.c_str(), acc,
      testing::search_time_budget());
}

/// A small two-tenant co-mapping at `bw_gbps`, cheap enough for TSan.
[[nodiscard]] std::string tenants_line(double bw_gbps, const std::string& id) {
  return strformat(
      R"({"schema_version":1,"id":"%s","tenants":[)"
      R"({"name":"a","model":"mocap","slo_s":0.5},)"
      R"({"name":"b","model":"cnn-lstm"}],"bw_gbps":%g,)"
      R"("options":{"time_budget_s":%g},"max_rounds":1})",
      id.c_str(), bw_gbps, testing::search_time_budget());
}

[[nodiscard]] bool all_ok(const std::vector<std::string>& lines) {
  return std::all_of(lines.begin(), lines.end(), [](const std::string& l) {
    return l.find(R"("ok":true)") != std::string::npos;
  });
}

[[nodiscard]] std::vector<std::string> run_serve(
    const std::string& input, const serve::ServeOptions& options,
    serve::ServeStats* stats_out = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  const serve::ServeStats stats = serve::serve_jsonl(in, out, options);
  if (stats_out != nullptr) *stats_out = stats;
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  return lines;
}

TEST(ServePipeline, AnswersEveryLineInOrderAndSurvivesErrors) {
  const std::string input =
      request_line("mocap", 0.5, "a") + "\n" + "{not json\n" +
      R"({"schema_version":1,"model":"nope"})" + "\n" +
      "\n" +  // empty line: skipped, not answered
      request_line("mocap", 0.5, "b") + "\n" +
      // A links override outside the 12-accelerator catalog is a
      // request-content error the parser cannot see: bad_field, as in a
      // tenants or repair request.
      R"({"schema_version":1,"model":"mocap","links":{"shape":"mixed",)"
      R"("bw_gbps":0.125,"overrides":[{"acc":99,"bw_gbps":1.25}]}})" + "\n";
  serve::ServeStats stats;
  const std::vector<std::string> lines = run_serve(input, {}, &stats);

  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 3u);

  EXPECT_NE(lines[0].find(R"("id":"a")"), std::string::npos);
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(lines[1].find("parse_error"), std::string::npos);
  EXPECT_NE(lines[2].find("unknown_model"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("id":"b")"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(lines[4].find(R"("code":"bad_field")"), std::string::npos)
      << lines[4];
  EXPECT_NE(lines[4].find("acc 99 out of range"), std::string::npos)
      << lines[4];

  // Same scenario planned twice: the warm response's payload is identical
  // to the cold one's apart from the echoed id (timing suppressed).
  std::string a = lines[0], b = lines[3];
  const auto strip_id = [](std::string& s, const std::string& id) {
    const std::string needle = strformat(R"("id":"%s",)", id.c_str());
    const std::size_t at = s.find(needle);
    ASSERT_NE(at, std::string::npos) << s;
    s.erase(at, needle.size());
  };
  strip_id(a, "a");
  strip_id(b, "b");
  EXPECT_EQ(a, b);
}

TEST(ServePipeline, MultiThreadOutputIsByteIdenticalToSingleThread) {
  // A mixed batch: cold and warm requests over two bandwidths, plus error
  // lines wedged between them. With timing suppressed the response payloads
  // are deterministic, so worker scheduling must not be observable.
  std::string input;
  input += request_line("mocap", 0.5, "r0") + "\n";
  input += request_line("mocap", 0.125, "r1") + "\n";
  input += "{broken\n";
  input += request_line("mocap", 0.5, "r3") + "\n";
  input += R"({"schema_version":9,"model":"mocap"})" + std::string("\n");
  input += request_line("mocap", 0.125, "r5") + "\n";
  input += request_line("mocap", 0.5, "r6") + "\n";

  serve::ServeOptions serial;
  serial.threads = 1;
  serve::ServeOptions pooled;
  pooled.threads = 4;

  const std::vector<std::string> want = run_serve(input, serial);
  const std::vector<std::string> got = run_serve(input, pooled);
  ASSERT_EQ(want.size(), 7u);
  EXPECT_EQ(want, got);
}

TEST(ServePipeline, TenantsRequestsShareTheLoopDeterministically) {
  // Tenants and single-model lines interleave on one loop; tenant errors
  // are answered in-band; and because tenants responses carry no timing,
  // worker scheduling must not be observable in the bytes.
  std::string input;
  input += request_line("mocap", 0.5, "s0") + "\n";
  input +=
      R"({"schema_version":1,"id":"t0","tenants":[)"
      R"({"name":"a","model":"mocap","slo_s":0.5},)"
      R"({"name":"b","model":"mocap"}],)"
      R"("options":{"remap":false},"max_rounds":1,"steal_round":false})"
      "\n";
  input +=
      R"({"schema_version":1,"id":"t1","tenants":[)"
      R"({"name":"a","model":"mocap","caps":"0x100"}]})"
      "\n";
  input +=
      R"({"schema_version":1,"id":"t2","tenants":[)"
      R"({"name":"a","model":"mocap","slo_s":1e-9}],)"
      R"("options":{"remap":false},"require_slos":true})"
      "\n";
  input += request_line("mocap", 0.5, "s1") + "\n";

  serve::ServeOptions serial;
  serial.threads = 1;
  serve::ServeStats stats;
  const std::vector<std::string> lines = run_serve(input, serial, &stats);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.errors, 2u);

  EXPECT_NE(lines[1].find(R"("id":"t0")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("all_slos_met":true)"), std::string::npos);
  EXPECT_NE(lines[2].find("infeasible_capability"), std::string::npos);
  EXPECT_NE(lines[3].find("slo_violated"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(lines[4].find(R"("id":"s1")"), std::string::npos);

  serve::ServeOptions pooled;
  pooled.threads = 4;
  EXPECT_EQ(lines, run_serve(input, pooled));
}

TEST(ServePipeline, RegistryEvictsTheLeastRecentScenario) {
  // Capacity 2: plans for A, B and C leave the sessions of B and C
  // resident, so A's repair finds no scenario state to repair, as on a
  // fresh server, while C's chain still works; a fresh plan for A brings
  // its session and scenario back.
  serve::ServeOptions options;
  options.planner.max_sessions = 2;
  std::string input;
  input += request_line("mocap", 0.5, "planA") + "\n";
  input += request_line("mocap", 0.25, "planB") + "\n";
  input += request_line("mocap", 0.125, "planC") + "\n";
  input += repair_line("mocap", 0.5, "repairA", "acc_lost", 0) + "\n";
  input += repair_line("mocap", 0.125, "repairC", "acc_lost", 0) + "\n";
  input += request_line("mocap", 0.5, "replanA") + "\n";
  input += repair_line("mocap", 0.5, "repairA2", "acc_lost", 0) + "\n";
  const std::vector<std::string> lines = run_serve(input, options);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_TRUE(all_ok({lines[0], lines[1], lines[2]}));
  EXPECT_NE(lines[3].find(R"("id":"repairA")"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(lines[3].find("no_prior_plan"), std::string::npos);
  EXPECT_TRUE(all_ok({lines[4], lines[5], lines[6]}));
  EXPECT_NE(lines[6].find(R"("outcome":"repaired")"), std::string::npos);
}

TEST(ServePipeline, RegistryEvictionIsInvisibleWhileKeysStayResident) {
  // Repair chains run back to back, with plans and tenants requests at
  // three bandwidths between them: at capacity 1 every chain's session
  // stays resident while the chain runs (a repair touches no other
  // session), the co-map solo and union sessions rebuild after each
  // eviction, and the bytes match the default capacity, which evicts
  // nothing here.
  std::string input;
  const double bws[] = {0.5, 0.25, 0.125};
  for (int round = 0; round < 2; ++round) {
    for (const double bw : bws) {
      const std::string tag = strformat("%d_%g", round, bw);
      input += request_line("mocap", bw, "p" + tag) + "\n";
      input += repair_line("mocap", bw, "lost" + tag, "acc_lost", 0) + "\n";
      input += repair_line("mocap", bw, "back" + tag, "acc_returned", 0) + "\n";
      input += request_line("cnn-lstm", bw, "q" + tag) + "\n";
      input += tenants_line(bw, "t" + tag) + "\n";
    }
  }
  serve::ServeOptions tight;
  tight.planner.max_sessions = 1;
  const std::vector<std::string> want = run_serve(input, {});
  ASSERT_EQ(want.size(), 30u);
  EXPECT_TRUE(all_ok(want));
  EXPECT_EQ(run_serve(input, tight), want);
}

TEST(ServePipeline, EvictingACoMapSessionInUseIsSafe) {
  // Four workers, room for one session, tenants bandwidths alternating:
  // solo and union sessions are evicted while other workers still co-map
  // on them. Every line is answered, with the bytes of the serial run.
  std::string input;
  for (int i = 0; i < 12; ++i) {
    input += tenants_line(i % 2 == 0 ? 0.5 : 0.25, strformat("t%d", i)) + "\n";
  }
  serve::ServeOptions serial;
  serial.planner.max_sessions = 1;
  serve::ServeOptions pooled = serial;
  pooled.threads = 4;
  serve::ServeStats stats;
  const std::vector<std::string> want = run_serve(input, serial);
  const std::vector<std::string> got = run_serve(input, pooled, &stats);
  ASSERT_EQ(got.size(), 12u);
  EXPECT_EQ(stats.ok, 12u);
  EXPECT_TRUE(all_ok(got));
  EXPECT_EQ(got, want);
}

TEST(ServePipeline, CoMapSessionsShareTheScenarioBound) {
  // One bound for everything: at capacity 2, a one-tenant co-map's solo
  // session (cnn-lstm @ 0.25) and union session evict the mocap @ 0.5 plan
  // session, and its scenario state with it.
  serve::ServeOptions options;
  options.planner.max_sessions = 2;
  std::string input;
  input += request_line("mocap", 0.5, "plan") + "\n";
  input += strformat(
      R"({"schema_version":1,"id":"co","tenants":[)"
      R"({"name":"a","model":"cnn-lstm"}],"bw_gbps":0.25,)"
      R"("options":{"time_budget_s":%g},"max_rounds":0})",
      testing::search_time_budget());
  input += "\n";
  input += repair_line("mocap", 0.5, "repair", "acc_lost", 0) + "\n";
  const std::vector<std::string> lines = run_serve(input, options);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(all_ok({lines[0], lines[1]}));
  EXPECT_NE(lines[2].find(R"("id":"repair")"), std::string::npos);
  EXPECT_NE(lines[2].find("no_prior_plan"), std::string::npos);
}

#if H2H_TEST_HAS_SIGNALS

TEST(ServePipeline, ShutdownSignalDrainsInFlightAndReturns) {
  // A pipe keeps the reader genuinely blocked (an istringstream would just
  // hit EOF), so the SIGTERM has a blocking read to interrupt — exactly
  // the `h2h serve` stdin situation. The stream goes through glibc stdio
  // (stdio_sync_filebuf, std::cin's own buffer class) because fd-level
  // libstdc++ filebufs retry EINTR internally and would never unblock.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  // Pre-set SIGTERM to ignore: the kill loop below may fire before
  // serve_jsonl installs its handler, and the default action would kill
  // the test process.
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  struct sigaction old = {};
  ASSERT_EQ(::sigaction(SIGTERM, &ignore, &old), 0);

  std::FILE* read_file = ::fdopen(fds[0], "r");
  ASSERT_NE(read_file, nullptr);
  __gnu_cxx::stdio_sync_filebuf<char> inbuf(read_file);
  std::istream in(&inbuf);
  std::ostringstream out;
  serve::ServeOptions options;
  options.handle_signals = true;

  serve::ServeStats stats;
  std::atomic<bool> done{false};
  std::thread server([&] {
    stats = serve::serve_jsonl(in, out, options);
    done.store(true);
  });

  // One complete request the drain must answer, then a line the signal
  // cuts mid-byte — it must be dropped, not answered as a parse error.
  const std::string req = request_line("mocap", 0.5, "pre") + "\n";
  ASSERT_EQ(::write(fds[1], req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  const std::string partial = R"({"schema_version":1,"model":"mo)";
  ASSERT_EQ(::write(fds[1], partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));

  // Keep signalling until one lands in the blocking read (delivery between
  // reads is absorbed by the handler and simply retried).
  while (!done.load()) {
    ::pthread_kill(server.native_handle(), SIGTERM);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.join();
  ::close(fds[1]);
  std::fclose(read_file);  // also closes fds[0]
  ASSERT_EQ(::sigaction(SIGTERM, &old, nullptr), 0);

  // The complete request was served; the half-line vanished.
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 0u);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(R"("id":"pre")"), std::string::npos);
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos);
}

/// Thread-safe diag sink: the test polls it for the announced port while
/// serve_tcp keeps writing connection summaries from its own thread.
class SyncDiagBuf : public std::streambuf {
 public:
  [[nodiscard]] std::string str() const {
    const std::scoped_lock lock(mu_);
    return text_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const std::scoped_lock lock(mu_);
      text_ += traits_type::to_char_type(ch);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* p, std::streamsize n) override {
    const std::scoped_lock lock(mu_);
    text_.append(p, static_cast<std::size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::string text_;
};

[[nodiscard]] int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // Generous: sanitizer builds plan slowly, and a test that expects no
  // answer polls with its own, shorter timeout.
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Writes all of `text`; false once the server has reset the connection.
[[nodiscard]] bool send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Line-at-a-time reads from a client socket.
class SocketLines {
 public:
  explicit SocketLines(int fd) : fd_(fd) {}

  /// The next line without its '\n'; nullopt at EOF, on an error, or past
  /// the socket's receive timeout.
  [[nodiscard]] std::optional<std::string> next() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// True when `fd` has something to read (a line or EOF) within `ms`.
[[nodiscard]] bool readable_within(int fd, int ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, ms) == 1;
}

/// The request counts of every "connection done" line on `diag`.
[[nodiscard]] std::vector<std::uint64_t> connection_requests(
    const std::string& diag) {
  std::vector<std::uint64_t> counts;
  const std::string needle = "connection done (";
  for (std::size_t at = diag.find(needle); at != std::string::npos;
       at = diag.find(needle, at + 1)) {
    counts.push_back(std::stoull(diag.substr(at + needle.size())));
  }
  return counts;
}

/// serve_tcp on its own thread. The constructor returns once the port is
/// announced; the destructor ends a server the test left running.
class TcpServer {
 public:
  explicit TcpServer(const serve::TcpOptions& options) : options_(options) {
    thread_ = std::thread([this] {
      rc_ = serve::serve_tcp(options_, diag_, &stats_);
      done_.store(true);
    });
    for (int tries = 0; tries < 5000 && port_ == 0 && !done_.load();
         ++tries) {
      const std::string text = diag_buf_.str();
      const std::size_t at = text.find("127.0.0.1:");
      if (at != std::string::npos &&
          text.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(std::stoul(text.substr(at + 10)));
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ~TcpServer() {
    if (!thread_.joinable()) return;
    if (options_.serve.handle_signals) {
      (void)terminate();
      return;
    }
    // Connections that close at once count toward max_connections.
    while (!done_.load()) {
      const int fd = connect_loopback(port_);
      if (fd >= 0) ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    thread_.join();
  }
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::string diag() const { return diag_buf_.str(); }
  /// Valid after join() or terminate().
  [[nodiscard]] const serve::TcpStats& stats() const { return stats_; }

  /// Waits for serve_tcp to return; its exit code.
  [[nodiscard]] int join() {
    thread_.join();
    return rc_;
  }

  /// SIGTERM to the server thread until serve_tcp returns; its exit code.
  /// Needs handle_signals, and SIGTERM ignored before the server starts.
  [[nodiscard]] int terminate() {
    while (!done_.load()) {
      ::pthread_kill(thread_.native_handle(), SIGTERM);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return join();
  }

 private:
  serve::TcpOptions options_;
  SyncDiagBuf diag_buf_;
  std::ostream diag_{&diag_buf_};
  serve::TcpStats stats_;
  int rc_ = -1;
  std::atomic<bool> done_{false};
  std::uint16_t port_ = 0;
  std::thread thread_;  // last: it uses every member above
};

TEST(ServePipeline, ClientDisconnectMidResponseDoesNotKillServer) {
  // A client that sends a burst of requests and vanishes without reading a
  // byte forces the server's response writes onto a dead socket — without
  // SIGPIPE suppression that kills the whole process, and without EPIPE
  // handling it wedges the connection loop. The server must stop working
  // for that connection and serve the next client normally.
  serve::TcpOptions options;
  options.max_connections = 2;
  options.serve.threads = 1;
  TcpServer server(options);
  ASSERT_NE(server.port(), 0) << "server never announced its port";

  constexpr int kBurst = 64;
  {
    // Connection 1: a burst of vlocnet plans, each slow enough that the
    // close lands mid-burst, then slam the connection shut (close with
    // unread data sends RST) — mid-write failure guaranteed.
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
      burst += request_line("vlocnet", 0.5, strformat("burst%d", i)) + "\n";
    }
    EXPECT_TRUE(send_all(fd, burst));
    // Give the server a moment to start writing into the doomed socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::close(fd);
  }

  {
    // Connection 2: a normal request must still be answered.
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(send_all(fd, request_line("mocap", 0.5, "alive") + "\n"));
    const std::string response =
        SocketLines(fd).next().value_or("(no response)");
    ::close(fd);
    EXPECT_NE(response.find(R"("id":"alive")"), std::string::npos);
    EXPECT_NE(response.find(R"("ok":true)"), std::string::npos);
  }

  EXPECT_EQ(server.join(), 0);
  EXPECT_EQ(server.stats().connections, 2u);
  EXPECT_EQ(server.stats().accept_retries, 0u);
  // The first failed write stops the vanished connection's loop: the lines
  // still buffered behind it are neither planned nor answered.
  const std::vector<std::uint64_t> counts =
      connection_requests(server.diag());
  ASSERT_EQ(counts.size(), 2u) << server.diag();
  for (const std::uint64_t n : counts) {
    EXPECT_LT(n, static_cast<std::uint64_t>(kBurst)) << server.diag();
  }
}

TEST(ServeTcp, SilentConnectionStallsNobodyAndTimesOut) {
  // Connection 1 connects and sends nothing. Connection 2 must be answered
  // while it is open, and connection 1 is closed at its idle timeout.
  serve::TcpOptions options;
  options.max_connections = 2;
  options.idle_timeout_s = 0.5;
  TcpServer server(options);
  ASSERT_NE(server.port(), 0);

  const auto t0 = std::chrono::steady_clock::now();
  const int silent = connect_loopback(server.port());
  const int active = connect_loopback(server.port());
  ASSERT_GE(silent, 0);
  ASSERT_GE(active, 0);
  EXPECT_TRUE(send_all(active, request_line("mocap", 0.5, "active") + "\n"));
  const std::string response =
      SocketLines(active).next().value_or("(no response)");
  EXPECT_NE(response.find(R"("id":"active")"), std::string::npos);
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos);
  EXPECT_FALSE(readable_within(silent, 0)) << "silent connection closed early";
  ::close(active);

  // The silent connection reads EOF, no sooner than its timeout.
  char c = 0;
  EXPECT_EQ(::read(silent, &c, 1), 0);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_GE(waited, 0.45);
  ::close(silent);

  EXPECT_EQ(server.join(), 0);
  std::vector<std::uint64_t> counts = connection_requests(server.diag());
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{0, 1})) << server.diag();
}

TEST(ServeTcp, ClientThatStopsReadingHoldsNoPlanPermit) {
  // One permit (threads = 1). Connection 1 pipelines vfs plans, whose
  // ~6 KiB responses soon fill the socket buffers because it never reads,
  // so its thread blocks in send. Connection 2 must still be answered:
  // the permit is released before the response is written.
  serve::TcpOptions options;
  options.max_connections = 2;
  options.serve.threads = 1;
  TcpServer server(options);
  ASSERT_NE(server.port(), 0);

  const int stuck = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stuck, 0);
  // A small receive buffer (fixed before connect, so never auto-tuned)
  // makes the server's send buffer the only slack.
  const int small = 4096;
  ::setsockopt(stuck, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(stuck, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // 4,000 responses are ~25 MB, far beyond any loopback buffer; the writer
  // blocks once the server stops reading.
  constexpr int kLines = 4000;
  std::atomic<int> sent{0};
  std::thread writer([&] {
    for (int i = 0; i < kLines; i += 50) {
      std::string batch;
      for (int j = i; j < i + 50; ++j) {
        batch += request_line("vfs", 0.5, strformat("s%d", j)) + "\n";
      }
      if (!send_all(stuck, batch)) return;
      sent.store(i + 50);
    }
  });
  // Wait until the writer has stalled for 200 ms: the server's thread for
  // this connection is then blocked in send.
  int last = -1;
  for (int quiet = 0, rounds = 0; quiet < 10 && rounds < 1000; ++rounds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = sent.load();
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }

  const int active = connect_loopback(server.port());
  ASSERT_GE(active, 0);
  EXPECT_TRUE(send_all(active, request_line("mocap", 0.5, "active") + "\n"));
  const std::string response =
      SocketLines(active).next().value_or("(no response)");
  EXPECT_NE(response.find(R"("id":"active")"), std::string::npos);
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos);
  ::close(active);

  // Unblock the writer, then reset the stuck connection.
  ::shutdown(stuck, SHUT_RDWR);
  writer.join();
  ::close(stuck);
  EXPECT_EQ(server.join(), 0);
  // The stuck connection stopped short of its requests: it was blocked,
  // not finished, while connection 2 was answered.
  std::vector<std::uint64_t> counts = connection_requests(server.diag());
  std::sort(counts.begin(), counts.end());
  ASSERT_EQ(counts.size(), 2u) << server.diag();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_LT(counts[1], static_cast<std::uint64_t>(kLines));
}

/// The pinned serve fixture lines (ci/serve_fixtures) without the repair
/// lines: repair sessions are server-global, so two connections replaying
/// them would interleave one chain.
void load_fixture_without_repairs(std::string& input,
                                  std::vector<std::string>& expected) {
  const std::string dir = std::string(H2H_SOURCE_DIR) + "/ci/serve_fixtures/";
  std::ifstream requests(dir + "requests.jsonl");
  std::ifstream answers(dir + "expected.jsonl");
  ASSERT_TRUE(requests && answers) << dir;
  std::string request;
  std::string answer;
  while (std::getline(requests, request)) {
    ASSERT_TRUE(std::getline(answers, answer));
    if (request.find(R"("repair":)") != std::string::npos) continue;
    input += request + "\n";
    expected.push_back(answer);
  }
}

TEST(ServeTcp, ConcurrentConnectionsAnswerTheServeFixturesByteForByte) {
  std::string input;
  std::vector<std::string> expected;
  load_fixture_without_repairs(input, expected);
  ASSERT_EQ(expected.size(), 5u);

  serve::TcpOptions options;
  options.max_connections = 2;
  options.serve.threads = 2;
  TcpServer server(options);
  ASSERT_NE(server.port(), 0);
  const int fds[2] = {connect_loopback(server.port()),
                      connect_loopback(server.port())};
  ASSERT_GE(fds[0], 0);
  ASSERT_GE(fds[1], 0);
  // Both connections pipeline every line before either reads.
  for (const int fd : fds) EXPECT_TRUE(send_all(fd, input));
  for (const int fd : fds) {
    SocketLines lines(fd);
    std::vector<std::string> got;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      got.push_back(lines.next().value_or("(no response)"));
    }
    EXPECT_EQ(got, expected);
    ::close(fd);
  }
  EXPECT_EQ(server.join(), 0);
}

TEST(ServeTcp, ConnectionCapQueuesTheNextConnection) {
  // With one connection at a time allowed, connection 2 is accepted, and
  // answered, only after connection 1 closes.
  serve::TcpOptions options;
  options.max_connections = 2;
  options.max_open_connections = 1;
  TcpServer server(options);
  ASSERT_NE(server.port(), 0);

  const int first = connect_loopback(server.port());
  ASSERT_GE(first, 0);
  EXPECT_TRUE(send_all(first, request_line("mocap", 0.5, "first") + "\n"));
  SocketLines first_lines(first);
  EXPECT_NE(first_lines.next().value_or("").find(R"("id":"first")"),
            std::string::npos);

  const int second = connect_loopback(server.port());  // the backlog
  ASSERT_GE(second, 0);
  EXPECT_TRUE(send_all(second, request_line("mocap", 0.5, "second") + "\n"));
  EXPECT_FALSE(readable_within(second, 250));
  ::close(first);
  const std::string response =
      SocketLines(second).next().value_or("(no response)");
  EXPECT_NE(response.find(R"("id":"second")"), std::string::npos);
  ::close(second);
  EXPECT_EQ(server.join(), 0);
}

TEST(ServeTcp, ShutdownSignalAnswersEveryOpenConnectionAndReturns) {
  // SIGTERM lands in accept while two connections are open: each still
  // gets an answer to every line it sent, and serve_tcp returns 0.
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  struct sigaction old = {};
  ASSERT_EQ(::sigaction(SIGTERM, &ignore, &old), 0);

  serve::TcpOptions options;
  options.serve.handle_signals = true;
  options.serve.threads = 2;
  constexpr int kLines = 3;
  std::vector<std::string> got[2];
  int rc = -1;
  {
    TcpServer server(options);
    ASSERT_NE(server.port(), 0);
    const int fds[2] = {connect_loopback(server.port()),
                        connect_loopback(server.port())};
    std::vector<SocketLines> lines;
    for (int c = 0; c < 2; ++c) {
      ASSERT_GE(fds[c], 0);
      std::string input;
      for (int i = 0; i < kLines; ++i) {
        input += request_line("mocap", 0.5, strformat("c%di%d", c, i)) + "\n";
      }
      EXPECT_TRUE(send_all(fds[c], input));
      lines.emplace_back(fds[c]);
    }
    // Both connections are being served before the signal.
    for (int c = 0; c < 2; ++c) {
      got[c].push_back(lines[c].next().value_or("(no response)"));
    }
    rc = server.terminate();
    for (int c = 0; c < 2; ++c) {
      while (std::optional<std::string> line = lines[c].next()) {
        got[c].push_back(*line);
      }
      ::close(fds[c]);
    }
    EXPECT_NE(server.diag().find("shutting down on signal"),
              std::string::npos);
    EXPECT_EQ(server.stats().connections, 2u);
  }
  ASSERT_EQ(::sigaction(SIGTERM, &old, nullptr), 0);

  EXPECT_EQ(rc, 0);
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(got[c].size(), static_cast<std::size_t>(kLines));
    for (int i = 0; i < kLines; ++i) {
      EXPECT_NE(got[c][i].find(strformat(R"("id":"c%di%d")", c, i)),
                std::string::npos);
      EXPECT_NE(got[c][i].find(R"("ok":true)"), std::string::npos);
    }
  }
}

#endif  // H2H_TEST_HAS_SIGNALS

TEST(ServePipeline, OversizedLinesAreAnsweredNotParsed) {
  serve::ServeOptions options;
  options.max_line_bytes = 128;
  const std::string big(4096, 'x');
  const std::string input =
      big + "\n" + request_line("mocap", 0.5, "after") + "\n";
  serve::ServeStats stats;
  const std::vector<std::string> lines = run_serve(input, options, &stats);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("parse_error"), std::string::npos);
  EXPECT_NE(lines[0].find("128 bytes"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ok":true)"), std::string::npos);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

}  // namespace
}  // namespace h2h
