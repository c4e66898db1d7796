#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <istream>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <semaphore>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "serve/protocol.h"
#include "util/error.h"
#include "util/str.h"

#if defined(__unix__) || defined(__APPLE__)
#define H2H_SERVE_HAS_TCP 1
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include <cerrno>
#include <cstring>
#else
#define H2H_SERVE_HAS_TCP 0
#endif

namespace h2h::serve {
namespace {

std::atomic<bool> g_shutdown{false};

[[nodiscard]] bool shutdown_requested() noexcept {
  return g_shutdown.load(std::memory_order_relaxed);
}

#if H2H_SERVE_HAS_TCP

void on_shutdown_signal(int) noexcept {
  g_shutdown.store(true, std::memory_order_relaxed);
}

/// Installs SIGINT/SIGTERM handlers for the lifetime of a serve loop and
/// restores the previous actions on exit. Deliberately no SA_RESTART: the
/// signal must interrupt the blocking read (EINTR -> stream EOF) so the
/// reader stops accepting while the drain path finishes in-flight work.
class SignalGuard {
 public:
  explicit SignalGuard(bool enable) : enabled_(enable) {
    if (!enabled_) return;
    g_shutdown.store(false, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = on_shutdown_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, &old_int_);
    ::sigaction(SIGTERM, &sa, &old_term_);
  }
  ~SignalGuard() {
    if (!enabled_) return;
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

 private:
  bool enabled_;
  struct sigaction old_int_ = {};
  struct sigaction old_term_ = {};
};

#else

/// Non-POSIX builds have no signals to guard; handle_signals is a no-op.
class SignalGuard {
 public:
  explicit SignalGuard(bool) {}
};

#endif  // H2H_SERVE_HAS_TCP

/// The permits for a `threads` setting: at least 1, at most what a
/// semaphore can count.
[[nodiscard]] std::ptrdiff_t permit_count(std::size_t threads) {
  constexpr auto kMax =
      static_cast<std::size_t>(std::counting_semaphore<>::max());
  return static_cast<std::ptrdiff_t>(std::clamp(threads, std::size_t{1}, kMax));
}

/// Holds one permit of a counting semaphore for its scope.
class Permit {
 public:
  explicit Permit(std::counting_semaphore<>& permits) : permits_(permits) {
    permits_.acquire();
  }
  ~Permit() { permits_.release(); }
  Permit(const Permit&) = delete;
  Permit& operator=(const Permit&) = delete;

 private:
  std::counting_semaphore<>& permits_;
};

/// The registry's key: which scenario a request is about. It mirrors the
/// Planner's session key components (model, batch, topology); a tenants
/// request has no model and keys on its raw bandwidth alone.
struct ScenarioKey {
  std::optional<ZooModel> model;  // empty: a tenants (co-map) scenario
  std::uint32_t batch = 0;
  double bw_gbps = 0;
  std::uint64_t links_fp = 0;  // params fingerprint; 0 = scalar bw
  [[nodiscard]] friend bool operator==(const ScenarioKey&,
                                       const ScenarioKey&) = default;
};

[[nodiscard]] ScenarioKey model_key(ZooModel model, std::uint32_t batch,
                                    double bw_gbps,
                                    const std::optional<Interconnect>& links) {
  return ScenarioKey{model, batch == 0 ? 1u : batch, bw_gbps,
                     links ? links->params_fingerprint() : 0};
}

[[nodiscard]] ScenarioKey tenants_key(double bw_gbps) {
  return ScenarioKey{std::nullopt, 0, bw_gbps, 0};
}

/// The most recent successful plan for a key — what the first repair of a
/// chain adopts. Kept apart from the live RepairSession so a fresh plan
/// request can reset a compounded repair history.
struct PriorPlan {
  Mapping mapping;
  LocalityPlan plan;
};

/// A live repair chain: an owned model copy (at the session batch) and the
/// engine compounding fault events against it.
struct RepairSession {
  ModelGraph model;
  RepairEngine engine;
  RepairSession(ModelGraph m, SystemConfig sys, RepairOptions opts)
      : model(std::move(m)), engine(model, std::move(sys), std::move(opts)) {}
};

/// A CoMapper kept warm across tenants requests at one bandwidth (the
/// member system must outlive the borrowing CoMapper, hence the pairing).
/// co_map itself is thread-safe.
struct CoMapSession {
  SystemConfig sys;
  CoMapper comapper;
  explicit CoMapSession(double bw_gbps)
      : sys(SystemConfig::standard(bw_gbps * 1e9)), comapper(sys) {}
};

/// What the registry keeps for one scenario: a model scenario's latest plan
/// and, once a repair adopted it, its live repair chain; a tenants
/// scenario's co-map session. Shared pointers, so evicting or resetting an
/// entry while a request still works on its state only drops the
/// registry's reference.
struct Scenario {
  ScenarioKey key;
  std::shared_ptr<const PriorPlan> prior;
  std::shared_ptr<RepairSession> repair;
  std::shared_ptr<CoMapSession> comap;
};

/// The server's one bounded store of per-scenario state (DESIGN.md §8): a
/// global least-recently-used list of at most `capacity` entries. Its lock
/// covers lookup, insert and eviction only; `fn` runs under it and must
/// only read or swap the entry's pointers.
class ScenarioRegistry {
 public:
  explicit ScenarioRegistry(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  /// Calls `fn(Scenario*)` on the entry for `key`, made most recent, or on
  /// nullptr when the key is not resident.
  template <class Fn>
  void find(const ScenarioKey& key, Fn fn) {
    const std::scoped_lock lock(mu_);
    fn(touch(key));
  }

  /// Calls `fn(Scenario&)` on the entry for `key`, inserted empty when
  /// missing; an insert past the capacity evicts the least recently used
  /// entry.
  template <class Fn>
  void insert(const ScenarioKey& key, Fn fn) {
    const std::scoped_lock lock(mu_);
    Scenario* entry = touch(key);
    if (entry == nullptr) {
      lru_.push_front(Scenario{key, {}, {}, {}});
      if (lru_.size() > capacity_) lru_.pop_back();
      entry = &lru_.front();
    }
    fn(*entry);
  }

 private:
  /// Caller holds mu_.
  [[nodiscard]] Scenario* touch(const ScenarioKey& key) {
    const auto matches = [&key](const Scenario& s) { return s.key == key; };
    const auto it = std::find_if(lru_.begin(), lru_.end(), matches);
    if (it == lru_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it);
    return &lru_.front();
  }

  const std::size_t capacity_;
  std::mutex mu_;
  std::list<Scenario> lru_;  // most recent first; guarded by mu_
};

/// Everything one request needs besides the line itself: the shared Planner,
/// the scenario registry and the name sources write_response reads. Lives
/// across connections so a reconnecting client still hits warm sessions.
class RequestProcessor {
 public:
  /// At most `max_in_flight` calls to process() do request work at once;
  /// the rest wait for a permit. planner_options.max_sessions bounds the
  /// registry as well as the Planner's session cache.
  RequestProcessor(const PlannerOptions& planner_options,
                   std::size_t max_in_flight)
      : planner_(planner_options),
        registry_(planner_options.max_sessions),
        name_sys_(SystemConfig::standard(0.5e9)),
        permits_(permit_count(max_in_flight)) {}

  struct Outcome {
    std::string line;
    bool ok = false;
  };

  /// Parses, dispatches and serializes one request under a permit. The
  /// permit is released on return, before the caller writes the line, so a
  /// client that stops reading never holds one.
  [[nodiscard]] Outcome process(const std::string& line) {
    const Permit permit(permits_);
    return dispatch(line);
  }

 private:
  /// One error mapping for every request kind: exceptions never cross the
  /// wire, so an infeasible request cannot take the loop down. ConfigError
  /// is a request-content problem the parser cannot see (a links override
  /// outside the catalog, union dtype/batch disagreement, losing an
  /// already-lost accelerator), so it answers bad_field, not plan_failed.
  [[nodiscard]] Outcome dispatch(const std::string& line) {
    return std::visit(
        [this](const auto& req) -> Outcome {
          try {
            return answer(req);
          } catch (const CapabilityError& e) {
            return fail(ErrorCode::InfeasibleCapability, e.what(), req.id);
          } catch (const ConfigError& e) {
            return fail(ErrorCode::BadField, e.what(), req.id);
          } catch (const std::exception& e) {
            return fail(ErrorCode::PlanFailed, e.what(), req.id);
          }
        },
        parse_any_request(line));
  }

  [[nodiscard]] static Outcome fail(ErrorCode code, std::string message,
                                    const std::string& id) {
    return {write_error({code, std::move(message), id}), false};
  }

  [[nodiscard]] Outcome answer(const WireError& err) {
    return {write_error(err), false};
  }

  [[nodiscard]] Outcome answer(const WireRequest& req) {
    const PlanResponse response = planner_.plan(to_plan_request(req));
    record_prior(req, response);
    return {write_response(req, response, model_for(req.model), name_sys_),
            true};
  }

  [[nodiscard]] Outcome answer(const WireTenantsRequest& req) {
    const std::shared_ptr<CoMapSession> session = comap_session(req.bw_gbps);
    const TenantSet set(req.tenants);
    CoMapOptions opts;
    opts.plan = req.options;
    opts.max_rounds = req.max_rounds;
    opts.steal_round = req.steal_round;
    const CoMapResult result = session->comapper.co_map(set, opts);
    if (req.require_slos && !result.all_slos_met) {
      std::string missing;
      for (const TenantOutcome& t : result.tenants) {
        if (t.met) continue;
        if (!missing.empty()) missing += ", ";
        missing += strformat("%s (%.6g s > %.6g s)", t.name.c_str(),
                             t.latency_s, t.slo_s);
      }
      return fail(ErrorCode::SloViolated,
                  strformat("co-mapping misses SLOs: %s", missing.c_str()),
                  req.id);
    }
    return {write_tenants_response(req, result, name_sys_), true};
  }

  /// The co-map session for a bandwidth, built outside the registry lock
  /// when the key is not resident (an evicted one rebuilds and answers the
  /// same bytes). Of two racing builds, the first insert wins.
  [[nodiscard]] std::shared_ptr<CoMapSession> comap_session(double bw_gbps) {
    const ScenarioKey key = tenants_key(bw_gbps);
    std::shared_ptr<CoMapSession> session;
    registry_.find(key, [&session](const Scenario* s) {
      if (s != nullptr) session = s->comap;
    });
    if (session != nullptr) return session;
    session = std::make_shared<CoMapSession>(bw_gbps);
    registry_.insert(key, [&session](Scenario& s) {
      if (s.comap == nullptr) s.comap = session;
      session = s.comap;
    });
    return session;
  }

  void record_prior(const WireRequest& req, const PlanResponse& response) {
    const ScenarioKey key =
        model_key(req.model, req.batch, req.bw_gbps, req.links);
    auto prior = std::make_shared<const PriorPlan>(
        PriorPlan{response.mapping, response.plan});
    registry_.insert(key, [&prior](Scenario& s) {
      s.prior = std::move(prior);
      // A new plan supersedes any compounded repair state.
      s.repair = nullptr;
    });
  }

  [[nodiscard]] Outcome answer(const WireRepairRequest& req) {
    if (req.event.acc.value >= name_sys_.accelerator_count()) {
      return fail(ErrorCode::UnknownAcc,
                  strformat("repair.acc: no accelerator %u (catalog has %zu)",
                            req.event.acc.value,
                            name_sys_.accelerator_count()),
                  req.id);
    }
    const ScenarioKey key =
        model_key(req.model, req.batch, req.bw_gbps, req.links);
    // One lock across the whole repair: sessions compound state, so repairs
    // serialize (plans and co-maps still run concurrently).
    const std::scoped_lock lock(repair_mu_);
    RepairOptions opts;
    opts.plan = req.options;
    opts.fallback_ratio = req.fallback_ratio;
    std::shared_ptr<RepairSession> session;
    std::shared_ptr<const PriorPlan> prior;
    registry_.find(key, [&](const Scenario* s) {
      if (s == nullptr) return;
      session = s->repair;
      prior = s->prior;
    });
    if (session == nullptr) {
      if (prior == nullptr) {
        // Never planned here, or evicted since: answered as a fresh server
        // would.
        return fail(ErrorCode::NoPriorPlan,
                    "repair: no prior plan for this model/topology/batch on "
                    "this server — send a plan request first",
                    req.id);
      }
      ModelGraph model = make_model(req.model);
      if (req.batch != 0) model.set_batch(req.batch);
      SystemConfig sys = req.links
                             ? SystemConfig::standard(*req.links)
                             : SystemConfig::standard(req.bw_gbps * 1e9);
      session = std::make_shared<RepairSession>(std::move(model),
                                                std::move(sys), opts);
      session->engine.adopt(prior->mapping, prior->plan);
      // Start the chain, unless a plan replaced the prior or the key was
      // evicted meanwhile: then this repair stands alone, as if it had run
      // before that plan.
      registry_.find(key, [&](Scenario* s) {
        if (s != nullptr && s->prior == prior) s->repair = session;
      });
    } else {
      session->engine.set_options(opts);
    }
    const RepairResult result = session->engine.apply(req.event);
    if (result.outcome == RepairOutcome::Infeasible) {
      return fail(ErrorCode::InfeasibleRepair, result.infeasible_reason,
                  req.id);
    }
    return {write_repair_response(req, result, session->model, name_sys_),
            true};
  }

  /// Graphs are only needed for layer names in responses; one cached copy
  /// per zoo model serves every request (read-only once built).
  [[nodiscard]] const ModelGraph& model_for(ZooModel id) {
    const std::scoped_lock lock(models_mu_);
    std::unique_ptr<const ModelGraph>& slot = models_[id];
    if (slot == nullptr) {
      slot = std::make_unique<const ModelGraph>(make_model(id));
    }
    return *slot;
  }

  Planner planner_;
  ScenarioRegistry registry_;
  SystemConfig name_sys_;  // accelerator names only; BW value irrelevant
  std::mutex models_mu_;
  std::map<ZooModel, std::unique_ptr<const ModelGraph>> models_;
  std::mutex repair_mu_;  // serializes repairs only
  std::counting_semaphore<> permits_;
};

/// Reorders completed responses back into request order. Whichever thread
/// completes the next-expected sequence number drains everything
/// consecutive, so output needs no dedicated writer thread.
///
/// The first write that fails (the client is gone, or stopped reading past
/// its idle timeout) marks the stream failed: later lines are dropped, and
/// failed() tells the reader and the workers to stop working for it.
class OrderedEmitter {
 public:
  explicit OrderedEmitter(std::ostream& out) : out_(out) {}

  void emit(std::uint64_t seq, std::string line, bool ok) {
    const std::scoped_lock lock(mu_);
    (ok ? stats_.ok : stats_.errors) += 1;
    ready_.emplace(seq, std::move(line));
    while (!ready_.empty() && ready_.begin()->first == next_) {
      if (!failed_.load(std::memory_order_relaxed)) {
        out_ << ready_.begin()->second << '\n';
        out_.flush();
        if (!out_) failed_.store(true, std::memory_order_relaxed);
      }
      ready_.erase(ready_.begin());
      ++next_;
    }
  }

  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ServeStats stats() const {
    const std::scoped_lock lock(mu_);
    return stats_;
  }

 private:
  std::ostream& out_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::string> ready_;
  std::uint64_t next_ = 0;
  ServeStats stats_;
  std::atomic<bool> failed_{false};
};

enum class LineStatus { Ok, Oversized, Eof };

/// getline with a byte cap: oversized lines are consumed to their newline
/// but truncated in `line`, and reported so the caller can answer with a
/// proper error instead of parsing the truncation.
[[nodiscard]] LineStatus read_line(std::istream& in, std::string& line,
                                   std::size_t cap) {
  line.clear();
  bool over = false;
  bool any = false;
  for (int c = in.get(); c != std::istream::traits_type::eof();
       c = in.get()) {
    any = true;
    if (c == '\n') return over ? LineStatus::Oversized : LineStatus::Ok;
    if (line.size() < cap) {
      line += static_cast<char>(c);
    } else {
      over = true;
    }
  }
  if (!any) return LineStatus::Eof;
  return over ? LineStatus::Oversized : LineStatus::Ok;
}

[[nodiscard]] std::string oversized_error(std::size_t cap) {
  return write_error({ErrorCode::ParseError,
                      strformat("request line exceeds %zu bytes", cap),
                      {}});
}

ServeStats run_loop(RequestProcessor& processor, std::istream& in,
                    std::ostream& out, const ServeOptions& options) {
  OrderedEmitter emitter(out);
  ServeStats totals;
  std::string line;
  std::uint64_t seq = 0;

  // A shutdown signal interrupts the blocking read, so the stream reports
  // EOF; a line the signal cut in half must be dropped, not answered as a
  // parse error. (A genuine final line without '\n' is still served when
  // no signal fired.)
  const auto cut_by_signal = [&in, &options](LineStatus status) {
    return status != LineStatus::Eof && options.handle_signals &&
           shutdown_requested() && in.eof();
  };

  if (options.threads <= 1) {
    while (!emitter.failed()) {
      const LineStatus status = read_line(in, line, options.max_line_bytes);
      if (status == LineStatus::Eof || cut_by_signal(status)) break;
      if (status == LineStatus::Ok && line.empty()) continue;
      ++totals.requests;
      if (status == LineStatus::Oversized) {
        emitter.emit(seq++, oversized_error(options.max_line_bytes), false);
        continue;
      }
      RequestProcessor::Outcome o = processor.process(line);
      emitter.emit(seq++, std::move(o.line), o.ok);
    }
    const ServeStats s = emitter.stats();
    totals.ok = s.ok;
    totals.errors = s.errors;
    return totals;
  }

  std::mutex mu;
  std::condition_variable work_cv;   // workers wait for lines
  std::condition_variable space_cv;  // reader waits for inbox room
  std::deque<std::pair<std::uint64_t, std::string>> inbox;
  bool done = false;
  const std::size_t inbox_cap = options.threads * 8;

  std::vector<std::thread> workers;
  workers.reserve(options.threads);
  for (std::size_t i = 0; i < options.threads; ++i) {
    workers.emplace_back([&] {
      for (;;) {
        std::unique_lock lock(mu);
        work_cv.wait(lock, [&] { return done || !inbox.empty(); });
        if (inbox.empty()) return;
        const std::uint64_t my_seq = inbox.front().first;
        const std::string my_line = std::move(inbox.front().second);
        inbox.pop_front();
        space_cv.notify_one();
        lock.unlock();
        if (emitter.failed()) continue;
        RequestProcessor::Outcome o = processor.process(my_line);
        emitter.emit(my_seq, std::move(o.line), o.ok);
      }
    });
  }

  while (!emitter.failed()) {
    const LineStatus status = read_line(in, line, options.max_line_bytes);
    if (status == LineStatus::Eof || cut_by_signal(status)) break;
    if (status == LineStatus::Ok && line.empty()) continue;
    ++totals.requests;
    if (status == LineStatus::Oversized) {
      emitter.emit(seq++, oversized_error(options.max_line_bytes), false);
      continue;
    }
    std::unique_lock lock(mu);
    space_cv.wait(lock, [&] { return inbox.size() < inbox_cap; });
    inbox.emplace_back(seq++, line);
    work_cv.notify_one();
  }
  {
    const std::scoped_lock lock(mu);
    done = true;
  }
  work_cv.notify_all();
  for (std::thread& t : workers) t.join();

  const ServeStats s = emitter.stats();
  totals.ok = s.ok;
  totals.errors = s.errors;
  return totals;
}

#if H2H_SERVE_HAS_TCP

/// Buffered std::streambuf over a connected socket; serves as both the get
/// and put area so one buffer backs the connection's istream and ostream.
///
/// A client that disconnects mid-response must not kill the server: writes
/// go through send(MSG_NOSIGNAL) where available so a dead peer yields
/// EPIPE instead of a process-fatal SIGPIPE, and any write error (EPIPE,
/// ECONNRESET, or EAGAIN past the idle timeout) reports cleanly as a stream
/// failure — the connection's loop then stops and its thread closes the
/// socket. Platforms without MSG_NOSIGNAL (macOS) get the same guarantee
/// from the SO_NOSIGPIPE socket option, set at accept time.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setp(out_, out_ + sizeof(out_) - 1);
  }
  ~FdStreamBuf() override { sync(); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return flush_out() == 0 ? traits_type::not_eof(ch) : traits_type::eof();
  }

  int sync() override { return flush_out(); }

 private:
  int flush_out() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    std::size_t off = 0;
    while (off < n) {
#if defined(MSG_NOSIGNAL)
      const ssize_t w = ::send(fd_, pbase() + off, n - off, MSG_NOSIGNAL);
#else
      const ssize_t w = ::write(fd_, pbase() + off, n - off);
#endif
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        // Drop the unsendable bytes: a dead peer never drains them, and
        // keeping them would fail every later flush (including the one in
        // the destructor).
        pbump(-static_cast<int>(n));
        return -1;
      }
      off += static_cast<std::size_t>(w);
    }
    pbump(-static_cast<int>(n));
    return 0;
  }

  int fd_;
  char in_[4096] = {};
  char out_[4096] = {};
};

/// Opt a just-accepted connection out of SIGPIPE where MSG_NOSIGNAL is not
/// available; no-op elsewhere (the send flag already covers it).
void suppress_sigpipe(int fd) {
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

/// The settings of an accepted socket: TCP_NODELAY, so the last segment
/// of a response leaves at once instead of waiting for the client's delayed
/// ACK (Nagle), and the idle timeout on reads and writes alike.
void configure_connection(int fd, double idle_timeout_s) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (idle_timeout_s > 0) {
    // At least 1 us: a zero timeval would mean "never".
    const auto us = static_cast<std::int64_t>(
        std::clamp(idle_timeout_s * 1e6, 1.0, 1e15));
    timeval timeout{};
    timeout.tv_sec = static_cast<time_t>(us / 1'000'000);
    timeout.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  suppress_sigpipe(fd);
}

/// Moves the calling thread to the `index`-th CPU, round-robin, of its
/// affinity set, then hands the whole set back, so the scheduler stays free
/// to move it later. Without it, on a 4-vCPU x86 Linux VM that had idled
/// for 25 s, the threads of two new connections both started on the accept
/// thread's CPU and shared it for their first ~200 requests (~0.7 s), which
/// cut that run's throughput by a quarter. No-op where affinity cannot be
/// set.
void start_on_own_cpu(std::uint64_t index) noexcept {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const auto count = static_cast<std::uint64_t>(CPU_COUNT(&allowed));
  if (count < 2) return;
  std::uint64_t skip = index % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) == 0) {
      ::sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return;
  }
#else
  (void)index;
#endif
}

/// The connections serve_tcp has open, one thread each. A thread closes its
/// socket when its loop ends; the accept loop joins such threads as it
/// goes, so a server that runs forever does not pile them up.
class Connections {
 public:
  Connections() = default;
  /// serve_tcp drains before this runs. On an exception path, end every
  /// connection's reads so the joins cannot wait on a silent client.
  ~Connections() {
    close_reads();
    (void)wait_below(1, [] { return false; });
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  /// Runs `serve` on a new thread that owns `fd` and closes it when `serve`
  /// returns; the thread starts on its own CPU (start_on_own_cpu). SIGINT
  /// and SIGTERM are blocked on that thread, so shutdown signals land on
  /// the accept thread and interrupt its accept().
  template <class Serve>
  void start(int fd, Serve serve) {
    const std::scoped_lock lock(mu_);
    const std::uint64_t id = next_id_++;
    Connection& c = connections_[id];
    c.fd = fd;
    sigset_t block;
    sigemptyset(&block);
    sigaddset(&block, SIGINT);
    sigaddset(&block, SIGTERM);
    sigset_t old;
    ::pthread_sigmask(SIG_BLOCK, &block, &old);
    try {
      c.thread = std::thread([this, id, serve = std::move(serve)]() mutable {
        start_on_own_cpu(id);
        serve();
        close_connection(id);
      });
    } catch (...) {
      ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
      connections_.erase(id);
      throw;
    }
    ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
    ++open_;
  }

  /// Waits until fewer than `cap` connections are open, joining the threads
  /// of closed ones. Returns false as soon as `stop()` holds while the cap
  /// is still reached; a signal handler cannot wake a condition variable,
  /// so the wait asks `stop()` every 100 ms.
  template <class Stop>
  [[nodiscard]] bool wait_below(std::size_t cap, Stop stop) {
    std::unique_lock lock(mu_);
    for (;;) {
      join_closed(lock);
      if (open_ < cap) return true;
      if (stop()) return false;
      closed_cv_.wait_for(lock, std::chrono::milliseconds(100),
                          [&] { return open_ < cap; });
    }
  }

  /// shutdown(SHUT_RD) on every open socket: each loop reads the lines the
  /// kernel already holds, then EOF, answers them all and closes.
  void close_reads() {
    const std::scoped_lock lock(mu_);
    for (const auto& [id, c] : connections_) {
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RD);
    }
  }

 private:
  struct Connection {
    int fd = -1;  // -1 once closed
    std::thread thread;
  };

  void close_connection(std::uint64_t id) noexcept {
    const std::scoped_lock lock(mu_);
    Connection& c = connections_.find(id)->second;
    ::close(c.fd);
    c.fd = -1;
    --open_;
    closed_cv_.notify_all();
  }

  void join_closed(std::unique_lock<std::mutex>& lock) {
    std::vector<std::thread> closed;
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second.fd >= 0) {
        ++it;
        continue;
      }
      closed.push_back(std::move(it->second.thread));
      it = connections_.erase(it);
    }
    if (closed.empty()) return;
    lock.unlock();
    for (std::thread& t : closed) t.join();
    lock.lock();
  }

  std::mutex mu_;
  std::condition_variable closed_cv_;
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_id_ = 0;
  std::size_t open_ = 0;
};

#endif  // H2H_SERVE_HAS_TCP

}  // namespace

ServeStats serve_jsonl(std::istream& in, std::ostream& out,
                       const ServeOptions& options) {
  const SignalGuard signals(options.handle_signals);
  RequestProcessor processor(options.planner, options.threads);
  return run_loop(processor, in, out, options);
}

int serve_tcp(const TcpOptions& options, std::ostream& diag,
              TcpStats* stats) {
  TcpStats local;
  if (stats == nullptr) stats = &local;
  *stats = {};
#if H2H_SERVE_HAS_TCP
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    diag << "h2h-serve: socket: " << std::strerror(errno) << '\n';
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, SOMAXCONN) != 0) {
    diag << "h2h-serve: bind/listen: " << std::strerror(errno) << '\n';
    ::close(listen_fd);
    return 1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  diag << "h2h-serve listening on 127.0.0.1:" << ntohs(bound.sin_port)
       << std::endl;

  // One processor across connections: a client that reconnects keeps its
  // warm sessions, and its permits bound the request work of all of them.
  // Each connection runs the inline loop, so its requests run and are
  // answered strictly in order.
  const SignalGuard signals(options.serve.handle_signals);
  RequestProcessor processor(options.serve.planner, options.serve.threads);
  ServeOptions conn_options = options.serve;
  conn_options.threads = 1;
  const auto stopping = [&options] {
    return options.serve.handle_signals && shutdown_requested();
  };
  std::mutex diag_mu;  // connection threads report on `diag` too
  const auto serve_connection = [&](int fd) {
    ServeStats conn_stats;
    try {
      FdStreamBuf buf(fd);
      std::istream conn_in(&buf);
      std::ostream conn_out(&buf);
      conn_stats = run_loop(processor, conn_in, conn_out, conn_options);
      conn_out.flush();
    } catch (const std::exception& e) {
      const std::scoped_lock lock(diag_mu);
      diag << "h2h-serve: connection failed: " << e.what() << '\n';
    }
    const std::scoped_lock lock(diag_mu);
    ++stats->connections;
    diag << "h2h-serve: connection done (" << conn_stats.requests
         << " requests, " << conn_stats.errors << " errors)" << std::endl;
  };

  int rc = 0;
  Connections connections;
  std::uint64_t accepted = 0;
  std::uint32_t accept_failures = 0;  // consecutive transient failures
  while (!stopping() && (options.max_connections == 0 ||
                         accepted < options.max_connections)) {
    // At the cap, further connects wait in the kernel backlog.
    if (!connections.wait_below(
            std::max<std::size_t>(options.max_open_connections, 1),
            stopping)) {
      break;
    }
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      // A shutdown signal interrupts accept; anything else (e.g. a
      // profiler attaching) just retries.
      if (errno == EINTR) continue;
      // Transient failures — the peer aborted its connect, or the process
      // is briefly out of descriptors — back off and retry instead of
      // taking the listener down. Persistent failure still exits 1.
      if ((errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) &&
          accept_failures < options.max_accept_retries) {
        ++accept_failures;
        ++stats->accept_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::int64_t{1} << std::min<std::uint32_t>(accept_failures, 8)));
        continue;
      }
      const std::scoped_lock lock(diag_mu);
      diag << "h2h-serve: accept: " << std::strerror(errno) << '\n';
      rc = 1;
      break;
    }
    accept_failures = 0;
    ++accepted;
    configure_connection(conn, options.idle_timeout_s);
    try {
      connections.start(conn, [&serve_connection, conn] {
        serve_connection(conn);
      });
    } catch (const std::exception& e) {
      ::close(conn);
      const std::scoped_lock lock(diag_mu);
      diag << "h2h-serve: connection thread: " << e.what() << '\n';
    }
  }
  ::close(listen_fd);

  // Drain: wait for every connection to close. A shutdown signal, or a
  // listener that failed, ends their reads instead; each still answers
  // every line it has read.
  if (rc != 0 || !connections.wait_below(1, stopping)) {
    connections.close_reads();
    (void)connections.wait_below(1, [] { return false; });
  }
  if (rc != 0) return rc;
  diag << "h2h-serve: served " << stats->connections << " connection(s), "
       << stats->accept_retries << " accept retr"
       << (stats->accept_retries == 1 ? "y" : "ies") << std::endl;
  if (stopping()) diag << "h2h-serve: shutting down on signal" << std::endl;
  return 0;
#else
  (void)options;
  diag << "h2h-serve: TCP serving is not supported on this platform\n";
  return 1;
#endif
}

}  // namespace h2h::serve
