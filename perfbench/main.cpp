// h2h_perfbench: the repository benchmark (run it through run.py, which
// builds it). One process drives three seeded workloads; the request
// stream of a run is a pure function of --seed and --seconds (workload.h),
// and every workload's default seed is 1.
//
//   fig5b-sweep  One thread, one warm Planner, the paper's Fig. 5b grid:
//                6 zoo models x 5 bandwidths (30 cells), re-shuffled by the
//                seed every round, whole rounds for --seconds. The four
//                passes and the snapshot simulations do all the work; the
//                wire, transport and session-insert paths do none.
//   serve-warm   Controllers re-planning among scenarios the server knows:
//                two closed-loop connections to a spawned
//                `h2h serve --tcp 0 --threads 2`, one request outstanding
//                each, full responses (mapping + steps). Set-up primes
//                every session key, so every plan is a cache hit. Mix by
//                requests: casia-surf 25%, facebag 20%, vfs 15%, vlocnet
//                10%, cnn-lstm 10%, mocap 10% plans over the 30 cells;
//                3-tenant co-maps (the ci/serve_fixtures set) 5%; repair
//                chains (plan -> acc_lost -> acc_returned, mocap or
//                cnn-lstm) 5%. 75% of its responses exceed 4 KiB, so it
//                exercises serve/server's transport on warm sessions: the
//                stall below, the ordered emitter, and the accept loop that
//                serves one connection at a time (the second connection's
//                first request waits out the whole first connection).
//   serve-cold   Scenario exploration: one connection, one request
//                outstanding, and every request carries a session key the
//                server has never seen (a fresh bandwidth, a uniform links
//                override, a batch size). Summary-only responses, each
//                within one 4 KiB write. Mix: casia-surf 30%, facebag 20%,
//                vfs 12%, vlocnet 8%, cnn-lstm 8%, mocap 8% plans; co-maps
//                at fresh bandwidths 6%; mocap/cnn-lstm repair chains on
//                fresh keys 8%. It drives the session layer's write path
//                (cold CostTable builds, LRU evictions, the never-evicted
//                co-map, prior-plan and repair maps), which serve-warm's
//                cache hits never touch, and bypasses the stall, so a stall
//                fix is predicted neutral here.
//
// Per-class client-side medians, seed 1, --seconds 20, 4-vCPU x86 VM:
//   serve-warm  repair:* 0.13-0.23 ms, plan:cnn-lstm 0.22, plan:mocap
//               0.28; plan:vfs, plan:casia-surf, plan:facebag 44.0;
//               tenants, plan:vlocnet 48.0 (the last five all > 4 KiB).
//   serve-cold  repair:* 0.06-0.08 ms, plan:cnn-lstm 0.10, plan:mocap
//               0.12, plan:vfs 0.18, plan:casia-surf 0.76, plan:facebag
//               0.97, plan:vlocnet 3.4, tenants 4.2.
//   fig5b-sweep per-cell medians: vlocnet 2.5-4.2 ms, facebag 0.6-0.85,
//               casia-surf 0.4-0.7, vfs 0.085, mocap 0.05, cnn-lstm 0.035.
// Every serve run prints its current per-class table.
//
// serve-warm runs are stall-bound today: `h2h serve` writes responses
// through a 4 KiB stream buffer, and on every response larger than that
// Nagle holds the tail until the client's delayed ACK fires (~40 ms), so a
// response over 4 KiB takes ~44 ms and 1,000 requests take ~30 s. Those
// runs will shorten once the stall is fixed.
//
// End-to-end metrics (--trace 0). Every workload reports all of them:
//   setup_s             median of 21 cold starts, 11 before the measured
//                       phase (the last of them is the one measured) and
//                       10 after it. fig5b-sweep: a fresh Planner
//                       cold-plans all 30 cells; serve-warm: spawn ->
//                       listening -> one priming request per key;
//                       serve-cold: spawn -> listening.
//   search_geomean_ms,  geometric mean / maximum over cells of each cell's
//   search_max_ms       median search time. fig5b-sweep: Planner::plan wall
//                       time. Serve workloads: PlanResponse::search_seconds
//                       of the stream's plan-mix requests replayed
//                       in-process (cell = model x Fig. 5b bandwidth;
//                       serve-cold's perturbed bandwidths count in their
//                       cell), serve-warm's warm plans in twelve passes
//                       over the stream, half of them before the measured
//                       phase and half after it, serve-cold's cold plans
//                       twice: right after the server answered each
//                       segment (see below), and in the reference replay.
//                       The server's own timing.search_s is not used:
//                       after each ~40 ms stall the worker wakes on an idle
//                       CPU, and the slowest cell's median swung 4.6-6.5 ms
//                       between serve-warm runs.
//   mapped_latency_ratio, geometric mean over cells of final / step-2
//   mapped_energy_ratio   latency (energy): Table 4, column 4. 0.345540 and
//                         0.506428 on the grid.
//   latency_p50_ms,     serve: client-observed, request write -> response
//   latency_p99_ms      newline, taken per segment of 1,000 requests in send
//                       order and reported as the median over segments
//                       (serve-cold: ten per 20 s run; serve-warm's 1,000
//                       requests are one). fig5b-sweep: over the 30 cell
//                       medians (half the cells plan in < 0.1 ms, half in
//                       > 0.35 ms, so the p50 of single plans would sit on
//                       that boundary, and their p99 read 4.1-6.8 ms over
//                       ten runs on a busy host, against 4.0-5.5 ms for the
//                       slowest cell's median).
//   throughput_rps      serve: per segment, its responses / its wall time,
//                       median over segments. fig5b-sweep: 30 / the sum of
//                       the cell medians, the plans per second of one round
//                       at median speed.
//   peak_rss_mb         the server's ru_maxrss from wait4; fig5b-sweep: this
//                       process's own.
// A failed request is a non-ok response, or a malformed, missing or
// out-of-order (id mismatch) line; a fig5b-sweep plan fails when its
// latency differs from the cell's first plan.
//
// Rules, each answering a noise source measured while sizing the runs:
//  1. One request outstanding per connection. With 4 pipelined requests on
//     one connection, 2-4 repair requests per run failed (the worker pool
//     ran a repair before its plan) and p99 spread 5.6-7.5 ms even without
//     the stall; with one outstanding, serve-warm read p50 43.82-43.87 ms,
//     p99 48.01-48.02 ms, 34.8-34.9 rps over 3 runs, and serve-cold p50
//     0.78-0.83 ms, p99 7.10-7.55 ms, 854-943 rps over 7 runs.
//  2. Keep p50 and p99 inside one request class: neither may sit near a
//     boundary between classes whose latencies differ by more than 2x.
//     Sub-100 us mocap/cnn-lstm requests swing 0.066-0.109 ms between
//     processes, and on fig5b-sweep p99 over single plans swung 4.4-5.4 ms,
//     hence per-cell medians for fig5b-sweep's metrics. The mixes put
//     serve-warm's p50 inside the stalled class today (inside casia-surf
//     once the stall is fixed) and both serve p99s inside the
//     vlocnet/tenants class. Class and cell shares are exact counts, not
//     draws, so they are the same for every seed; every serve run prints
//     the per-class table and warns when p50 or p99 lies within 2 points
//     of such a boundary.
//  3. Measure setup_s over repeated cold starts: one ~25 ms start swung
//     22-38 ms across processes, the median of nine 21.5-24.7 ms. Here
//     setup_s is the median of 21.
//  4. serve-cold's peak RSS must not depend on speed: memory grows with
//     every cold key (47.5-48.2 MiB after 3,416 requests, against
//     9.3-9.6 MiB on the warm mix; small cold requests alone went from
//     33 MiB at 5.2k requests to 61 MiB at 10.4k), so the serve request
//     counts come from --seconds (serve-warm 50 per second, at least 1,000;
//     serve-cold one 1,000-request segment per two seconds), never from a
//     time limit.
//  5. Repair chains stay on one connection, on session keys no other
//     request uses: repair sessions are global to the server and any plan
//     for the key resets them. serve-warm gives each connection a batch
//     size (2 + connection) the plan mix never sends.
//  6. Measure what clients see: the client sets TCP_NODELAY on its own
//     socket only, never TCP_QUICKACK, never tunes the server's socket
//     (either would hide the stall a later serve change should remove), and
//     waits for readiness by blocking on the announcement line.
//
// Host contention on a shared 4-vCPU VM comes in bursts of a few seconds:
// one slowed every request class of a serve-cold run by 20-40% (casia-surf
// p50 0.74 -> 0.92 ms), another in-process warm plans by 30%, and at one
// moment a vCPU ran a fixed loop 25% slower than another. Over five
// serve-cold runs the whole-run p50 and p99 spread 15% and 18% of their
// median (quartile distance), the medians over ten 1,000-request segments
// 8% and 10%; serve-cold sends every segment the mix's exact class and
// cell counts, so the segments are alike. For the same reason each metric
// samples the whole run: set-up starts and serve-warm's search passes are
// split around the measured phase, and serve-cold's connection pauses
// after each segment while the benchmark plans that segment's plan-mix
// lines in-process (five more runs: every spread 1-5%).
//
// Output checks (any failure makes "correct" false):
//  - fig5b-sweep's 0.125 and 0.5 GB/s cells, rendered through
//    serve::write_response with timing off, byte-equal
//    ci/uniform_fixtures/*.json.
//  - Traced runs: per cell, the traced replay's mapping and latency equal
//    Planner::plan's bit for bit.
//  - Serve responses with "timing" removed equal the in-process
//    Replayer's line for the same request (replay.h); every serve-warm
//    plan response reports "warm":true; every serve-cold response is
//    <= 4 KiB and every serve-cold key is distinct; every server exits 0
//    with no accept retry.
//
// --trace 1 adds a traced in-process replay of the same request stream
// and prints the per-layer metrics (BENCHMARK.json lists them); its spans
// go to <build dir>/trace-<workload>.json in Chrome trace-event format.
// Per-pass times and counters are means per plan; server.transport_ms is
// the median over requests of untraced client latency minus traced
// in-process service time; server.stalled_share counts requests whose
// transport exceeds 30 ms; server.conn_wait_s is the longest transport of
// a connection's first request; trace.overhead_ms is traced minus
// untraced mean service time; trace.worst_cell_gap (fig5b-sweep) is the
// largest relative gap between a cell's pass + snapshot spans and its
// untraced median. Layers a workload does not exercise report 0.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/planner.h"
#include "replay.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve_client.h"
#include "trace.h"
#include "util/log.h"
#include "util/str.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace json = h2h::json;
namespace serve = h2h::serve;
using h2h::strformat;

constexpr int kColdStarts = 21;
constexpr std::size_t kStreamBuffer = 4096;  // h2h serve's write buffer
constexpr double kStalledMs = 30;
constexpr int kWarmSearchPasses = 12;

struct Args {
  Workload workload = Workload::Fig5bSweep;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok && problems.size() < 1000) problems.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---------------------------------------------------------------- stats

[[nodiscard]] double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

[[nodiscard]] double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

[[nodiscard]] double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0 ? num / den : 0;
}

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void print_setups(const std::vector<double>& setups) {
  std::cout << strformat(
      "set-up: %zu cold starts, median %.4f s (min %.4f, p25 %.4f, p75 %.4f, "
      "max %.4f)\n",
      setups.size(), median(setups),
      *std::min_element(setups.begin(), setups.end()), quantile(setups, 0.25),
      quantile(setups, 0.75), *std::max_element(setups.begin(), setups.end()));
}

[[nodiscard]] double self_peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Per-span-name totals over the spans of requests [first, last).
struct SpanTotals {
  std::map<std::string, double> ms;
  std::map<std::string, std::size_t> count;

  SpanTotals(const Tracer& tracer, int first, int last) {
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.request < first || s.request >= last) continue;
      ms[s.name] += span_ms(s);
      count[s.name] += 1;
    }
  }
  [[nodiscard]] double mean_ms(const std::string& name) const {
    const auto it = count.find(name);
    return it == count.end()
               ? 0
               : ms.at(name) / static_cast<double>(it->second);
  }
  [[nodiscard]] double total_ms(const std::string& name) const {
    const auto it = ms.find(name);
    return it == ms.end() ? 0 : it->second;
  }
};

/// Counters of the plan requests a traced replay answered.
struct PlanCounters {
  std::size_t plans = 0;
  double attempts = 0, accepted = 0, retimes = 0, knap_hits = 0,
         knap_misses = 0;
  double evaluated = 0, bound_pruned = 0, dominance_pruned = 0;

  void add(const h2h::RemapStats& r, const h2h::CompPrioritizedStats& s) {
    ++plans;
    attempts += r.attempts;
    accepted += r.accepted;
    retimes += static_cast<double>(r.retimes);
    knap_hits += static_cast<double>(r.knapsack_hits);
    knap_misses += static_cast<double>(r.knapsack_misses);
    evaluated += static_cast<double>(s.evaluated);
    bound_pruned += static_cast<double>(s.bound_pruned);
    dominance_pruned += static_cast<double>(s.dominance_pruned);
  }
};

/// Every per-layer metric, in BENCHMARK.json order. Layers the workload
/// does not exercise stay 0.
struct Layers {
  std::map<std::string, double> v;

  void plan_layers(const SpanTotals& t, const PlanCounters& c) {
    const auto per_plan = [&](double x) {
      return ratio(x, static_cast<double>(c.plans));
    };
    v["remapping.ms"] = per_plan(t.total_ms("remapping"));
    v["remapping.probes"] = per_plan(c.attempts);
    v["remapping.accept_ratio"] = ratio(c.accepted, c.attempts);
    v["remapping.retimes"] = per_plan(c.retimes);
    v["remapping.us_per_probe"] =
        ratio(t.total_ms("remapping") * 1e3, c.attempts);
    v["remapping.knapsack_hit_ratio"] =
        ratio(c.knap_hits, c.knap_hits + c.knap_misses);
    v["comp_prioritized.ms"] = per_plan(t.total_ms("comp_prioritized"));
    v["comp_prioritized.evaluated"] = per_plan(c.evaluated);
    v["comp_prioritized.bound_pruned"] = per_plan(c.bound_pruned);
    v["comp_prioritized.dominance_pruned"] = per_plan(c.dominance_pruned);
    v["weight_locality.ms"] = per_plan(t.total_ms("weight_locality"));
    v["activation_fusion.ms"] = per_plan(t.total_ms("activation_fusion"));
    v["simulator.snapshot_ms"] = t.mean_ms("simulator.snapshot");
  }
};

const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> names{
      {"remapping.ms", "ms"},
      {"remapping.probes", "count"},
      {"remapping.accept_ratio", "ratio"},
      {"remapping.retimes", "count"},
      {"remapping.us_per_probe", "us"},
      {"remapping.knapsack_hit_ratio", "ratio"},
      {"comp_prioritized.ms", "ms"},
      {"comp_prioritized.evaluated", "count"},
      {"comp_prioritized.bound_pruned", "count"},
      {"comp_prioritized.dominance_pruned", "count"},
      {"weight_locality.ms", "ms"},
      {"activation_fusion.ms", "ms"},
      {"simulator.snapshot_ms", "ms"},
      {"planner.hit_ratio", "ratio"},
      {"planner.cold_build_ms", "ms"},
      {"cost_table.build_ms", "ms"},
      {"protocol.parse_us", "us"},
      {"protocol.write_us", "us"},
      {"protocol.response_kib", "KiB"},
      {"protocol.over_4k_share", "share"},
      {"server.transport_ms", "ms"},
      {"server.stalled_share", "share"},
      {"server.conn_wait_s", "s"},
      {"co_mapper.ms", "ms"},
      {"co_mapper.rounds", "count"},
      {"repair.apply_ms", "ms"},
      {"repair.cone_layers", "count"},
      {"repair.fallback_share", "share"},
      {"trace.overhead_ms", "ms"},
      {"trace.worst_cell_gap", "share"},
  };
  return names;
}

void emit_layers(const Layers& layers, Report& report) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = layers.v.find(name);
    report.add(name, it == layers.v.end() ? 0.0 : it->second, unit);
  }
}

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_trace(const Tracer& tracer, Workload w) {
  const std::string path = strformat("%s/trace-%s.json", PERFBENCH_TRACE_DIR,
                                     workload_name(w).data());
  std::ofstream out(path);
  tracer.write_chrome_json(out);
  std::cout << "trace: " << tracer.spans().size() << " spans -> " << path
            << '\n';
}

[[nodiscard]] bool same_plan(const h2h::PlanResponse& a,
                             const h2h::PlanResponse& b) {
  if (a.final_result().latency != b.final_result().latency) return false;
  if (a.mapping.size() != b.mapping.size()) return false;
  for (std::uint32_t i = 0; i < a.mapping.size(); ++i) {
    const h2h::LayerId id{i};
    if (a.mapping.is_assigned(id) != b.mapping.is_assigned(id)) return false;
    if (!a.mapping.is_assigned(id)) continue;
    if (a.mapping.acc_of(id) != b.mapping.acc_of(id) ||
        a.mapping.seq_of(id) != b.mapping.seq_of(id)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------- fig5b-sweep

[[nodiscard]] std::string cell_name(const Cell& c) {
  return strformat("%s@%g", h2h::zoo_info(c.model).key.data(),
                   h2h::bandwidth_value(c.bw) / 1e9);
}

void check_uniform_fixtures(const std::vector<h2h::PlanResponse>& first,
                            Report& report) {
  const h2h::SystemConfig names = h2h::SystemConfig::standard(0.5e9);
  std::size_t compared = 0;
  for (std::size_t c = 0; c < fig5b_cells().size(); ++c) {
    const Cell& cell = fig5b_cells()[c];
    const double gbps = h2h::bandwidth_value(cell.bw) / 1e9;
    if (gbps != 0.125 && gbps != 0.5) continue;
    serve::WireRequest w;
    w.model = cell.model;
    w.bw_gbps = gbps;
    w.emit_timing = false;
    const std::string line = serve::write_response(
        w, first[c], h2h::make_model(cell.model), names);
    const std::string path =
        strformat("%s/ci/uniform_fixtures/%s_%g.json", PERFBENCH_SOURCE_DIR,
                  h2h::zoo_info(cell.model).key.data(), gbps);
    std::string want = read_file(path);
    while (!want.empty() && want.back() == '\n') want.pop_back();
    report.check(line == want, "write_response differs from " + path);
    ++compared;
  }
  report.check(compared == 12, "expected 12 uniform fixture cells");
}

Report run_fig5b(const Args& args) {
  Report report;
  const std::vector<Cell>& cells = fig5b_cells();
  std::vector<h2h::PlanRequest> requests;
  for (const Cell& c : cells) {
    requests.push_back(h2h::PlanRequest::zoo(c.model, c.bw));
  }

  // Set-up: a fresh Planner cold-plans all 30 cells, kColdStarts times,
  // half before the measured phase and half after it (host contention
  // comes in bursts of a few seconds). The last Planner set up before the
  // measured phase is the warm one it uses.
  std::vector<double> setups;
  std::vector<double> cold_builds;
  std::vector<h2h::PlanResponse> first;
  const auto cold_start = [&] {
    const Clock::time_point t0 = Clock::now();
    auto planner = std::make_unique<h2h::Planner>();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      h2h::PlanResponse r = planner->plan(requests[c]);
      cold_builds.push_back(r.setup_seconds);
      if (setups.empty()) first.push_back(std::move(r));
    }
    setups.push_back(seconds_since(t0));
    return planner;
  };
  for (int rep = 0; rep < kColdStarts / 2; ++rep) (void)cold_start();
  const std::unique_ptr<h2h::Planner> planner = cold_start();
  check_uniform_fixtures(first, report);

  // Measured: whole shuffled rounds until --seconds have passed.
  std::vector<std::vector<double>> samples(cells.size());
  std::vector<double> all;
  std::uint64_t rounds = 0;
  const std::uint64_t hits0 = planner->cache_hits();
  const std::uint64_t misses0 = planner->cache_misses();
  const Clock::time_point start = Clock::now();
  double wall = 0;
  while (wall < args.seconds) {
    for (const std::size_t c : fig5b_round_order(args.seed, rounds)) {
      const Clock::time_point t0 = Clock::now();
      const h2h::PlanResponse r = planner->plan(requests[c]);
      const double dt = seconds_since(t0);
      samples[c].push_back(dt);
      all.push_back(dt);
      ++report.attempted;
      if (r.final_result().latency != first[c].final_result().latency) {
        ++report.failed;
      }
    }
    ++rounds;
    wall = seconds_since(start);
  }
  while (static_cast<int>(setups.size()) < kColdStarts) (void)cold_start();
  print_setups(setups);
  const double hit_ratio =
      ratio(static_cast<double>(planner->cache_hits() - hits0),
            static_cast<double>(planner->cache_hits() - hits0 +
                                planner->cache_misses() - misses0));

  std::vector<double> cell_ms;
  std::vector<double> lat_ratio;
  std::vector<double> energy_ratio;
  std::cout << strformat("fig5b-sweep: %llu rounds x %zu cells in %.2f s\n",
                         static_cast<unsigned long long>(rounds), cells.size(),
                         wall);
  std::cout << strformat("%-16s %10s %10s %10s\n", "cell", "median_ms",
                         "lat_ratio", "energy_ratio");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cell_ms.push_back(median(samples[c]) * 1e3);
    lat_ratio.push_back(first[c].latency_vs_baseline());
    energy_ratio.push_back(first[c].energy_vs_baseline());
    std::cout << strformat("%-16s %10.4f %10.6f %10.6f\n",
                           cell_name(cells[c]).c_str(), cell_ms.back(),
                           lat_ratio.back(), energy_ratio.back());
  }

  if (!args.trace) {
    report.add("setup_s", median(setups), "s");
    report.add("search_geomean_ms", geomean(cell_ms), "ms");
    report.add("search_max_ms",
               *std::max_element(cell_ms.begin(), cell_ms.end()), "ms");
    report.add("mapped_latency_ratio", geomean(lat_ratio), "ratio");
    report.add("mapped_energy_ratio", geomean(energy_ratio), "ratio");
    // Percentiles and throughput come from the per-cell medians (rule 2).
    // The grid is half sub-0.1 ms cells and half >0.35 ms cells, so the
    // p50 of single plans sits on that class boundary; their p99 and mean
    // rate moved twice as much as the cell medians under a busy host.
    report.add("latency_p50_ms", median(cell_ms), "ms");
    report.add("latency_p99_ms", quantile(cell_ms, 0.99), "ms");
    double round_ms = 0;
    for (const double ms : cell_ms) round_ms += ms;
    report.add("throughput_rps",
               static_cast<double>(cells.size()) / round_ms * 1e3, "1/s");
    report.add("peak_rss_mb", self_peak_rss_mib(), "MiB");
    return report;
  }

  // Traced replay of the same stream on a fresh Planner: one cold set-up
  // round (requests 0..29), then every measured round.
  Tracer tracer;
  h2h::Planner traced;
  PlanCounters counters;
  const int measured_first = static_cast<int>(cells.size());
  int request = 0;
  std::vector<std::vector<double>> traced_ms(cells.size());
  const auto replay = [&](std::size_t c, bool measured) {
    tracer.set_request(request++);
    h2h::CompPrioritizedStats step1;
    const std::size_t before = tracer.spans().size();
    const h2h::PlanResponse r = traced_plan(traced, requests[c], tracer, step1);
    if (!r.warm) trace_cost_table_build(requests[c], tracer);
    report.check(same_plan(r, first[c]),
                 "traced replay differs from Planner::plan on " +
                     cell_name(cells[c]));
    if (!measured) return;
    counters.add(r.remap_stats, step1);
    double passes_ms = 0;
    for (std::size_t i = before; i < tracer.spans().size(); ++i) {
      const Tracer::Span& s = tracer.spans()[i];
      // Children of the plan span, minus the session lookup.
      if (s.parent < 0 || std::string_view(s.name) == "planner.session") {
        continue;
      }
      passes_ms += span_ms(s);
    }
    traced_ms[c].push_back(passes_ms);
  };
  for (std::size_t c = 0; c < cells.size(); ++c) replay(c, false);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (const std::size_t c : fig5b_round_order(args.seed, round)) {
      replay(c, true);
    }
  }
  write_trace(tracer, args.workload);

  const SpanTotals totals(tracer, measured_first, request);
  Layers layers;
  layers.plan_layers(totals, counters);
  layers.v["planner.hit_ratio"] = hit_ratio;
  layers.v["planner.cold_build_ms"] = mean(cold_builds) * 1e3;
  layers.v["cost_table.build_ms"] =
      SpanTotals(tracer, 0, measured_first).mean_ms("cost_table.build");
  layers.v["trace.overhead_ms"] =
      totals.mean_ms("planner.plan") - mean(all) * 1e3;
  double worst = 0;
  std::cout << strformat("%-16s %12s %14s %8s\n", "cell", "untraced_ms",
                         "pass+snap_ms", "gap");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const double traced_median = median(traced_ms[c]);
    const double gap = std::abs(traced_median / cell_ms[c] - 1);
    worst = std::max(worst, gap);
    std::cout << strformat("%-16s %12.4f %14.4f %8.3f\n",
                           cell_name(cells[c]).c_str(), cell_ms[c],
                           traced_median, gap);
  }
  layers.v["trace.worst_cell_gap"] = worst;
  emit_layers(layers, report);
  return report;
}

// --------------------------------------------------------------- serve

/// The response with its trailing "timing" member removed (write_response
/// and write_repair_response always put it last).
[[nodiscard]] std::string strip_timing(const std::string& line) {
  const std::size_t at = line.rfind(",\"timing\":{");
  if (at == std::string::npos) return line;
  return line.substr(0, at) + "}";
}

/// What the client learned from one served line.
struct Answer {
  bool ok = false;    // parsed, "ok":true, and the id matched
  bool warm = false;  // timing.warm of a plan response
};

[[nodiscard]] Answer inspect(const Exchange& e, const WireLine& w) {
  Answer a;
  if (!e.answered) return a;
  const json::ParseResult p = json::parse(e.response);
  if (!p.value || !p.value->is_object()) return a;
  const json::Object& root = p.value->as_object();
  const json::Value* ok = root.find("ok");
  const json::Value* id = root.find("id");
  a.ok = ok != nullptr && ok->is_bool() && ok->as_bool() && id != nullptr &&
         id->is_string() && id->as_string() == w.id;
  const json::Value* t = root.find("timing");
  if (t != nullptr && t->is_object()) {
    const json::Value* warm = t->as_object().find("warm");
    a.warm = warm != nullptr && warm->is_bool() && warm->as_bool();
  }
  return a;
}

/// One measured request: what was sent, and what each side answered.
struct Row {
  const WireLine* line = nullptr;
  const Exchange* served = nullptr;
  Answer answer;
  Served reference;  // untraced in-process replay
  Served traced;     // traced replay (--trace 1 only)
  bool first_on_connection = false;
};

[[nodiscard]] std::size_t response_bytes(const Row& r) {
  return r.served->response.size() + 1;  // the newline is written too
}

/// Client-side latency percentiles and throughput of a serve run: each
/// taken per segment of kSegmentRequests requests in send order (a shorter
/// tail joins the last segment), then the median over segments.
struct SegmentStats {
  std::size_t segments = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double rps = 0;
};

[[nodiscard]] SegmentStats segment_stats(const std::vector<Row>& rows) {
  std::vector<const Exchange*> answered;
  for (const Row& r : rows) {
    if (r.served->answered) answered.push_back(r.served);
  }
  SegmentStats out;
  if (answered.empty()) return out;
  std::sort(answered.begin(), answered.end(),
            [](const Exchange* a, const Exchange* b) {
              return a->sent < b->sent;
            });
  out.segments = std::max<std::size_t>(1, answered.size() / kSegmentRequests);
  std::vector<double> p50, p99, rps;
  for (std::size_t k = 0; k < out.segments; ++k) {
    const std::size_t first = k * kSegmentRequests;
    const std::size_t last =
        k + 1 == out.segments ? answered.size() : first + kSegmentRequests;
    std::vector<double> ms;
    double span_s = 0;
    for (std::size_t i = first; i < last; ++i) {
      const Exchange& e = *answered[i];
      ms.push_back(e.latency_s * 1e3);
      const double end_s =
          std::chrono::duration<double>(e.sent - answered[first]->sent)
              .count() +
          e.latency_s;
      span_s = std::max(span_s, end_s);
    }
    p50.push_back(median(ms));
    p99.push_back(quantile(ms, 0.99));
    rps.push_back(static_cast<double>(last - first) / span_s);
  }
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  out.rps = median(rps);
  return out;
}

void print_class_table(const std::vector<Row>& rows, bool traced) {
  struct Cls {
    std::vector<double> ms;
    std::vector<double> transport;
    double bytes = 0;
  };
  std::map<std::string, Cls> by;
  std::vector<double> all;
  for (const Row& r : rows) {
    if (!r.served->answered) continue;
    Cls& c = by[r.line->cls];
    c.ms.push_back(r.served->latency_s * 1e3);
    c.bytes += static_cast<double>(response_bytes(r));
    if (traced) {
      c.transport.push_back((r.served->latency_s - r.traced.service_s) * 1e3);
    }
    all.push_back(r.served->latency_s * 1e3);
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, c] : by) order.emplace_back(median(c.ms), name);
  std::sort(order.begin(), order.end());

  std::cout << strformat("%-20s %8s %7s %10s %10s %10s%s\n", "class",
                         "requests", "share%", "bytes", "p50_ms", "p90_ms",
                         traced ? "  transport_p50_ms" : "");
  // Class boundaries that matter (rule 2): cumulative shares, in median
  // order, where the next class's median is more than 2x this one's.
  double cumulative = 0;
  double previous_p50 = 0;
  std::vector<double> boundaries;
  for (const auto& [p50, name] : order) {
    if (previous_p50 > 0 && p50 > 2 * previous_p50) {
      boundaries.push_back(cumulative);
    }
    previous_p50 = p50;
    const Cls& c = by[name];
    const double share = 100.0 * static_cast<double>(c.ms.size()) /
                         static_cast<double>(all.size());
    cumulative += share;
    std::cout << strformat("%-20s %8zu %7.2f %10.0f %10.4f %10.4f",
                           name.c_str(), c.ms.size(), share,
                           c.bytes / static_cast<double>(c.ms.size()), p50,
                           quantile(c.ms, 0.9));
    if (traced) std::cout << strformat("  %16.4f", median(c.transport));
    std::cout << '\n';
  }
  for (const auto& [label, q] :
       {std::pair{"p50", 50.0}, std::pair{"p99", 99.0}}) {
    for (const double b : boundaries) {
      if (std::abs(b - q) < 2.0) {
        std::cout << strformat(
            "WARNING: %s lies within 2 points of a class boundary at %.2f%% "
            "(classes in median order, next median more than 2x)\n",
            label, b);
      }
    }
  }
}

Report run_serve(const Args& args) {
  Report report;
  const bool warm = args.workload == Workload::ServeWarm;
  const ServeStream stream =
      make_serve_stream(args.workload, args.seed,
                        serve_request_count(args.workload, args.seconds));

  if (!warm) {
    // Every key fresh: chain lines share their chain's key, nothing else.
    std::map<std::string, int> owner;
    for (const WireLine& w : stream.connections[0]) {
      const auto [it, inserted] = owner.emplace(w.key, w.chain);
      report.check(inserted || (w.chain >= 0 && it->second == w.chain),
                   "serve-cold key repeats: " + w.key);
    }
  }

  // Search times come from a replayer of their own, primed like the
  // server, so that they sample other stretches of the run than the
  // reference replay: host contention comes in bursts of a few seconds that
  // slowed every plan by up to 30%. serve-warm replans its warm plans
  // (which repeat exactly; a vlocnet cell gets ~20 a run, and their median
  // swung 14% between runs) in passes, half before the measured phase and
  // half after it. serve-cold plans each segment's plan-mix lines, cold,
  // right after the server answered them.
  auto searcher = std::make_unique<Replayer>();
  std::map<int, std::vector<double>> cell_search;
  const auto search = [&](const std::vector<WireLine>& lines,
                          std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      if (lines[i].cell < 0) continue;
      const Served s = searcher->process(lines[i].line);
      if (s.ok && s.warm == warm) {
        cell_search[lines[i].cell].push_back(s.search_s * 1e3);
      }
    }
  };
  const auto warm_passes = [&](int passes) {
    for (int pass = 0; warm && !args.trace && pass < passes; ++pass) {
      for (const auto& conn : stream.connections) search(conn, 0, conn.size());
    }
  };
  if (warm && !args.trace) {
    for (const WireLine& w : stream.setup) (void)searcher->process(w.line);
  }
  warm_passes(kWarmSearchPasses / 2);

  // Set-up, kColdStarts times: spawn -> listening (-> priming, warm). Half
  // the starts run before the measured phase and half after it, for the
  // same reason; the last start before it serves the measured phase.
  std::vector<double> setups;
  const auto cold_start = [&](int conns) {
    const Clock::time_point t0 = Clock::now();
    auto server = std::make_unique<ServerProcess>(PERFBENCH_SERVE_BIN,
                                                  (warm ? 1 : 0) + conns);
    if (warm) {
      double unused = 0;
      const auto primed =
          run_closed_loops(server->port(), {stream.setup}, unused);
      for (std::size_t i = 0; i < stream.setup.size(); ++i) {
        report.check(inspect(primed[0][i], stream.setup[i]).ok,
                     "priming request failed: " + stream.setup[i].line);
      }
    }
    setups.push_back(seconds_since(t0));
    return server;
  };
  const auto set_up_only = [&] {
    const std::unique_ptr<ServerProcess> server = cold_start(warm ? 0 : 1);
    if (!warm) {
      double unused = 0;
      (void)run_closed_loops(server->port(),
                             std::vector<std::vector<WireLine>>(1), unused);
    }
    const ServerProcess::Exit e = server->wait();
    report.check(e.clean && e.accept_retries == 0,
                 "set-up server exited uncleanly: " + e.diag);
  };
  for (int rep = 0; rep < kColdStarts / 2; ++rep) set_up_only();
  const std::unique_ptr<ServerProcess> server =
      cold_start(static_cast<int>(stream.connections.size()));
  double wall = 0;
  const std::vector<std::vector<Exchange>> served =
      warm ? run_closed_loops(server->port(), stream.connections, wall)
           : std::vector<std::vector<Exchange>>{run_paced_loop(
                 server->port(), stream.connections[0],
                 [&](std::size_t first, std::size_t last) {
                   search(stream.connections[0], first, last);
                 },
                 wall)};
  const ServerProcess::Exit exit = server->wait();
  report.check(exit.clean, "h2h serve exited with a failure:\n" + exit.diag);
  report.check(exit.accept_retries == 0,
               "h2h serve retried accept:\n" + exit.diag);
  while (static_cast<int>(setups.size()) < kColdStarts) set_up_only();
  print_setups(setups);
  warm_passes(kWarmSearchPasses - 1 - kWarmSearchPasses / 2);
  searcher.reset();

  // Reference answers: the same stream replayed in-process, untraced. A
  // traced run replays it a second time, request by request in lock step,
  // so both replays see the same heap and cache state (set-up lines are
  // trace requests 0..setup-1, measured rows follow in connection order).
  Replayer replayer;
  Tracer tracer;
  Replayer traced(&tracer);
  int request = 0;
  std::vector<double> cold_builds;
  const auto replay_traced = [&](const std::string& line) {
    tracer.set_request(request++);
    Served s = traced.process(line);
    if (s.kind == Served::Kind::Plan && !s.warm) {
      cold_builds.push_back(s.setup_s);
      trace_cost_table_build(
          serve::to_plan_request(
              std::get<serve::WireRequest>(serve::parse_any_request(line))),
          tracer);
    }
    return s;
  };
  for (const WireLine& w : stream.setup) {
    (void)replayer.process(w.line);
    if (args.trace) (void)replay_traced(w.line);
  }
  const int measured_first = request;
  const std::uint64_t hits0 = traced.planner().cache_hits();
  const std::uint64_t misses0 = traced.planner().cache_misses();
  std::vector<Row> rows;
  for (std::size_t c = 0; c < stream.connections.size(); ++c) {
    for (std::size_t i = 0; i < stream.connections[c].size(); ++i) {
      Row r;
      r.line = &stream.connections[c][i];
      r.served = &served[c][i];
      r.first_on_connection = i == 0;
      r.answer = inspect(*r.served, *r.line);
      // Alternate which replay goes first, so neither always finds the
      // caches the other just warmed.
      if (args.trace && rows.size() % 2 == 1) {
        r.traced = replay_traced(r.line->line);
      }
      r.reference = replayer.process(r.line->line);
      if (args.trace && rows.size() % 2 == 0) {
        r.traced = replay_traced(r.line->line);
      }
      rows.push_back(std::move(r));
    }
  }

  std::map<int, std::vector<double>> cell_lat_ratio;
  std::map<int, std::vector<double>> cell_energy_ratio;
  for (const Row& r : rows) {
    ++report.attempted;
    if (!r.answer.ok) ++report.failed;
    report.check(r.reference.ok, "in-process replay failed: " + r.line->line);
    if (!r.served->answered) continue;
    report.check(strip_timing(r.served->response) == r.reference.line,
                 "served line differs from the in-process reference for " +
                     r.line->id);
    if (warm && r.line->is_plan()) {
      report.check(r.answer.warm,
                   "serve-warm plan was not warm: " + r.line->id);
    }
    if (!warm) {
      report.check(response_bytes(r) <= kStreamBuffer,
                   "serve-cold response over 4 KiB: " + r.line->id);
    }
    if (r.line->cell >= 0 && r.reference.ok) {
      cell_search[r.line->cell].push_back(r.reference.search_s * 1e3);
      cell_lat_ratio[r.line->cell].push_back(r.reference.latency_ratio);
      cell_energy_ratio[r.line->cell].push_back(r.reference.energy_ratio);
    }
  }
  std::vector<double> search_ms;
  std::vector<double> lat_ratio;
  std::vector<double> energy_ratio;
  for (const auto& [cell, v] : cell_search) {
    search_ms.push_back(median(v));
    lat_ratio.push_back(median(cell_lat_ratio[cell]));
    energy_ratio.push_back(median(cell_energy_ratio[cell]));
  }

  std::cout << strformat(
      "%s: %zu requests on %zu connection(s) in %.2f s%s\n",
      workload_name(args.workload).data(), rows.size(),
      stream.connections.size(), wall,
      warm ? "" : ", with the in-process search between segments");

  if (!args.trace) {
    print_class_table(rows, false);
    const SegmentStats seg = segment_stats(rows);
    std::cout << strformat(
        "client latency and throughput: medians over %zu segment(s) of %zu "
        "requests\n",
        seg.segments, kSegmentRequests);
    report.add("setup_s", median(setups), "s");
    report.add("search_geomean_ms", geomean(search_ms), "ms");
    report.add("search_max_ms",
               search_ms.empty() ? 0 : *std::max_element(search_ms.begin(),
                                                         search_ms.end()),
               "ms");
    report.add("mapped_latency_ratio", geomean(lat_ratio), "ratio");
    report.add("mapped_energy_ratio", geomean(energy_ratio), "ratio");
    report.add("latency_p50_ms", seg.p50_ms, "ms");
    report.add("latency_p99_ms", seg.p99_ms, "ms");
    report.add("throughput_rps", seg.rps, "1/s");
    report.add("peak_rss_mb", exit.max_rss_mib, "MiB");
    return report;
  }

  PlanCounters counters;
  std::vector<double> transport;
  std::vector<double> traced_service;
  std::vector<double> untraced_service;
  double rounds = 0, tenants = 0, cones = 0, fallbacks = 0, repairs = 0;
  double bytes = 0, over = 0, stalled = 0, conn_wait = 0;
  for (const Row& r : rows) {
    const Served& s = r.traced;
    report.check(s.line == r.reference.line,
                 "traced replay differs from the untraced one for " +
                     r.line->id);
    traced_service.push_back(s.service_s * 1e3);
    untraced_service.push_back(r.reference.service_s * 1e3);
    if (s.kind == Served::Kind::Plan) counters.add(s.remap, s.step1);
    if (s.kind == Served::Kind::Tenants) {
      rounds += s.rounds;
      ++tenants;
    }
    if (s.kind == Served::Kind::Repair) {
      cones += static_cast<double>(s.cone_layers);
      fallbacks += s.used_fallback ? 1 : 0;
      ++repairs;
    }
    if (!r.served->answered) continue;
    const double t = r.served->latency_s - s.service_s;
    transport.push_back(t * 1e3);
    bytes += static_cast<double>(response_bytes(r));
    over += response_bytes(r) > kStreamBuffer ? 1 : 0;
    stalled += t * 1e3 > kStalledMs ? 1 : 0;
    if (r.first_on_connection) conn_wait = std::max(conn_wait, t);
  }
  write_trace(tracer, args.workload);
  print_class_table(rows, true);

  const double n = static_cast<double>(transport.size());
  const SpanTotals totals(tracer, measured_first, request);
  Layers layers;
  layers.plan_layers(totals, counters);
  layers.v["planner.hit_ratio"] =
      ratio(static_cast<double>(traced.planner().cache_hits() - hits0),
            static_cast<double>(traced.planner().cache_hits() - hits0 +
                                traced.planner().cache_misses() - misses0));
  layers.v["planner.cold_build_ms"] = mean(cold_builds) * 1e3;
  layers.v["cost_table.build_ms"] =
      SpanTotals(tracer, 0, request).mean_ms("cost_table.build");
  layers.v["protocol.parse_us"] = totals.mean_ms("protocol.parse") * 1e3;
  layers.v["protocol.write_us"] = totals.mean_ms("protocol.write") * 1e3;
  layers.v["protocol.response_kib"] = ratio(bytes / 1024.0, n);
  layers.v["protocol.over_4k_share"] = ratio(over, n);
  layers.v["server.transport_ms"] = median(transport);
  layers.v["server.stalled_share"] = ratio(stalled, n);
  layers.v["server.conn_wait_s"] = conn_wait;
  layers.v["co_mapper.ms"] = totals.mean_ms("co_mapper");
  layers.v["co_mapper.rounds"] = ratio(rounds, tenants);
  layers.v["repair.apply_ms"] = totals.mean_ms("repair");
  layers.v["repair.cone_layers"] = ratio(cones, repairs);
  layers.v["repair.fallback_share"] = ratio(fallbacks, repairs);
  layers.v["trace.overhead_ms"] = mean(traced_service) - mean(untraced_service);
  emit_layers(layers, report);
  return report;
}

// ---------------------------------------------------------------- main

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return std::nullopt;
      a.workload = *w;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;
  return a;
}

void print_result(const Report& report) {
  for (const std::string& p : report.problems) {
    std::cout << "CHECK FAILED: " << p << '\n';
  }
  std::cout << "attempted " << report.attempted << ", failed "
            << report.failed << '\n';
  json::Object metrics;
  for (const Metric& m : report.metrics) {
    json::Object entry;
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  json::Object root;
  root.set("correct", report.problems.empty() && report.failed == 0);
  root.set("attempted", static_cast<double>(report.attempted));
  root.set("failed", static_cast<double>(report.failed));
  root.set("metrics", std::move(metrics));
  std::cout << json::dump(json::Value(std::move(root))) << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: h2h_perfbench --workload fig5b-sweep|serve-warm|"
                 "serve-cold [--seed N] [--seconds S] [--trace 0|1]\n";
    return 2;
  }
  h2h::set_log_level(h2h::LogLevel::Warn);
  try {
    const Report report = args->workload == Workload::Fig5bSweep
                              ? run_fig5b(*args)
                              : run_serve(*args);
    print_result(report);
  } catch (const std::exception& e) {
    std::cerr << "h2h_perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
