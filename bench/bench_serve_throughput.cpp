// Serve-path throughput: requests/second and per-request service latency
// (p50/p99) for the wire pipeline — parse_any_request -> Planner::plan ->
// write_response, exactly what `h2h serve` does per jsonl line — under
// cold, warm, and mixed request mixes at 1/2/4 worker threads. Numbers are
// recorded in bench/README.md.
//
// Mix definitions:
//   warm  — requests cycle 12 pre-built sessions (mocap x {Low- .. Mid});
//           every request is a cache hit.
//   cold  — every request carries a unique BW_acc, so every request builds
//           a fresh session (Simulator + CostTable) and the LRU churns.
//   mixed — 7 of 8 requests warm, every 8th cold (unique BW_acc).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "h2h.h"
#include "serve/protocol.h"

namespace {

using namespace h2h;
using Clock = std::chrono::steady_clock;

enum class Mix { Warm, Cold, Mixed };

[[nodiscard]] const char* to_string(Mix mix) {
  switch (mix) {
    case Mix::Warm: return "warm";
    case Mix::Cold: return "cold";
    case Mix::Mixed: return "mixed";
  }
  return "?";
}

/// The request line a client would send; parsing it is part of the
/// measured service time.
[[nodiscard]] std::string request_line(double bw_gbps) {
  return strformat(
      R"({"schema_version":1,"model":"mocap","bw_gbps":%.9f,)"
      R"("emit":{"timing":false}})",
      bw_gbps);
}

/// One request's bandwidth under `mix`. Warm keys cycle the five catalog
/// settings x {default, x1.5, x2} scales (12 distinct keys fits the default
/// session cache); cold keys perturb BW_acc so no two requests share a key.
[[nodiscard]] double bw_for(Mix mix, std::size_t i) {
  static constexpr double kWarm[12] = {0.125, 0.15,  0.25, 0.5, 1.25, 0.1875,
                                       0.225, 0.375, 0.75, 0.6, 0.3,  1.0};
  const double unique = 0.4 + 1e-6 * static_cast<double>(i + 1);
  switch (mix) {
    case Mix::Warm: return kWarm[i % 12];
    case Mix::Cold: return unique;
    case Mix::Mixed: return (i % 8 == 7) ? unique : kWarm[i % 12];
  }
  return 0.5;
}

struct MixResult {
  double wall_s = 0;
  std::vector<double> latencies_s;  // per request, sorted on return
};

/// Serve `total` requests from `threads` workers against one shared
/// Planner, timing each request end to end through the wire codec.
[[nodiscard]] MixResult run_mix(Mix mix, std::size_t threads,
                                std::size_t total) {
  Planner planner;
  const ModelGraph model = make_model(ZooModel::MoCap);
  const SystemConfig names = SystemConfig::standard(0.5e9);
  if (mix != Mix::Cold) {
    for (std::size_t i = 0; i < 12; ++i) {
      (void)planner.plan(PlanRequest::zoo(
          ZooModel::MoCap, bw_for(Mix::Warm, i) * 1e9));
    }
  }

  std::vector<std::vector<double>> per_thread(threads);
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Static interleave; cold indices stay globally unique.
      for (std::size_t i = t; i < total; i += threads) {
        const std::string line = request_line(bw_for(mix, i));
        const auto start = Clock::now();
        auto parsed = serve::parse_any_request(line);
        const auto& req = std::get<serve::WireRequest>(parsed);
        const PlanResponse r = planner.plan(serve::to_plan_request(req));
        const std::string out = serve::write_response(req, r, model, names);
        const auto finish = Clock::now();
        if (out.empty()) std::abort();  // keep the response alive
        per_thread[t].push_back(
            std::chrono::duration<double>(finish - start).count());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  MixResult result;
  result.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const std::vector<double>& lat : per_thread) {
    result.latencies_s.insert(result.latencies_s.end(), lat.begin(),
                              lat.end());
  }
  std::sort(result.latencies_s.begin(), result.latencies_s.end());
  return result;
}

[[nodiscard]] double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t at = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[at];
}

}  // namespace

int main(int argc, char** argv) {
  // --quick shrinks the request count for smoke runs (CI).
  std::size_t total = 512;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") total = 32;
  }

  std::printf("serve throughput, mocap, %zu requests per cell\n", total);
  std::printf("%-6s %8s %10s %12s %12s\n", "mix", "threads", "req/s",
              "p50 (ms)", "p99 (ms)");
  for (const Mix mix : {Mix::Warm, Mix::Cold, Mix::Mixed}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const MixResult r = run_mix(mix, threads, total);
      std::printf("%-6s %8zu %10.0f %12.3f %12.3f\n", to_string(mix),
                  threads, static_cast<double>(r.latencies_s.size()) / r.wall_s,
                  percentile(r.latencies_s, 0.50) * 1e3,
                  percentile(r.latencies_s, 0.99) * 1e3);
    }
  }
  return 0;
}
