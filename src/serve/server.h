// Planning-as-a-service: the request pipeline behind `h2h serve`
// (DESIGN.md §8).
//
// serve_jsonl reads one request per line, plans it, and writes one response
// per line, *in request order* regardless of worker count — a reader thread
// stamps each line with a sequence number, a small worker pool plans
// concurrently on one shared (thread-safe) Planner, and completed responses
// are held until all predecessors have been written. With emit.timing off,
// multi-threaded output is byte-identical to single-threaded output
// (pinned in test_serve_pipeline.cpp).
//
// Every failure mode becomes an `ok:false` response line: malformed JSON,
// schema violations, and planning exceptions are answered and the loop
// keeps going. Nothing short of losing the input or the output stops a
// serving loop (the first failed write stops it at once, so no work is
// spent on a client that is gone) — except a graceful shutdown: with
// ServeOptions::handle_signals set, SIGINT/SIGTERM stop the reader, drain
// in-flight requests, flush the ordered output, and return normally.
//
// Every wire schema is served: single-model requests hit the shared
// Planner; "tenants" requests co-map a TenantSet on a CoMapper
// (tenant/co_mapper.h) kept warm for their bandwidth, with require_slos
// misses answered as slo_violated; "repair" requests repair the last plan
// served for their scenario key. All three map exceptions alike:
// CapabilityError answers infeasible_capability, ConfigError (request
// content the parser cannot see) bad_field, anything else plan_failed.
// Co-map sessions, prior plans and repair chains live in one
// least-recently-used scenario registry, bounded like the Planner's session
// cache, so the server's memory does not grow with the keys clients send.
//
// serve_tcp accepts loopback TCP connections and serves each one at once on
// its own thread, which runs the inline loop (threads = 1) over its socket:
// a connection's requests run and are answered strictly in order, and a
// silent or slow client blocks only its own thread. Every connection shares
// one Planner and its session state, and a counting semaphore lets at most
// ServeOptions::threads requests do work at once across all of them. Each
// socket has TCP_NODELAY and an idle timeout; TcpOptions caps how many
// connections are open at once. POSIX-only; on other platforms it returns
// an error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/planner.h"

namespace h2h::serve {

struct ServeOptions {
  /// Requests worked on at once. serve_jsonl: worker threads planning
  /// concurrently; 1 = plan inline on the reader thread (no pool, fully
  /// deterministic scheduling). serve_tcp: the limit across all
  /// connections, each of which plans inline on its own thread.
  std::size_t threads = 1;
  /// Session-cache configuration of the shared Planner. Its max_sessions
  /// also bounds the scenario registry (DESIGN.md §8): the co-map sessions,
  /// prior plans and repair chains kept between requests. A repair whose
  /// scenario was evicted answers no_prior_plan.
  PlannerOptions planner;
  /// Requests longer than this are answered with parse_error (guards the
  /// line buffer against unbounded input).
  std::size_t max_line_bytes = 1 << 20;
  /// Install SIGINT/SIGTERM handlers (POSIX, no SA_RESTART) for graceful
  /// shutdown: the loop stops accepting new lines, drains every request
  /// already read, flushes responses in order, and returns normally (so
  /// `h2h serve` exits 0). A partial line cut mid-read by the signal is
  /// dropped, not answered. Off by default — embedders own their signals.
  bool handle_signals = false;
};

struct ServeStats {
  std::uint64_t requests = 0;  // non-empty lines consumed
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
};

/// Blocking jsonl request loop: reads `in` to EOF, writes responses to
/// `out`. Empty lines are skipped.
ServeStats serve_jsonl(std::istream& in, std::ostream& out,
                       const ServeOptions& options = {});

struct TcpOptions {
  ServeOptions serve;
  /// Port to bind on 127.0.0.1; 0 asks the kernel for a free port (the
  /// chosen port is announced on `diag`).
  std::uint16_t port = 0;
  /// Stop after serving this many connections; 0 = serve forever.
  std::uint64_t max_connections = 0;
  /// Connections served at once (at least 1). At the cap the listener
  /// waits for one to close; further connects wait in the kernel backlog.
  std::size_t max_open_connections = 64;
  /// A connection that sends nothing, or does not read a response, for
  /// this many seconds is closed (SO_RCVTIMEO and SO_SNDTIMEO); 0 = never.
  double idle_timeout_s = 300;
  /// Transient accept failures (ECONNABORTED, EMFILE, ENFILE) are retried
  /// with exponential backoff up to this many consecutive times before the
  /// listener gives up; each retry increments TcpStats::accept_retries.
  std::uint32_t max_accept_retries = 5;
};

/// Listener-level counters, reported through the `stats` out-param of
/// serve_tcp (and summarized on `diag` at shutdown).
struct TcpStats {
  std::uint64_t connections = 0;     // connections served and closed
  std::uint64_t accept_retries = 0;  // transient accept failures retried
};

/// Listen and serve. Announces "h2h-serve listening on 127.0.0.1:<port>" on
/// `diag` once ready. Returns 0 on clean shutdown, 1 on socket errors
/// (reported on `diag`). A client disconnecting mid-response never kills
/// the listener (SIGPIPE suppressed, EPIPE handled), and its connection
/// stops planning at the first failed write; transient accept failures back
/// off and retry per TcpOptions::max_accept_retries. With max_connections
/// set, it returns once the last of them has closed. With handle_signals,
/// SIGINT/SIGTERM stop the accept loop and shut down the read side of every
/// open socket; each connection answers every line it has read, and the
/// call returns 0 once all have closed. When `stats` is non-null it
/// receives the listener counters.
int serve_tcp(const TcpOptions& options, std::ostream& diag,
              TcpStats* stats = nullptr);

}  // namespace h2h::serve
