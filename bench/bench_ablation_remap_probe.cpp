// Cost of the step-4 remap loop and of one candidate probe. A probe re-runs
// steps 2-3 as a delta over the moved layer and its neighbours (falling back
// to the full per-accelerator pass only under capacity pressure), reuses
// knapsack solves through a memoizing cache, and evaluates the schedule into
// IncrementalSchedule's overlay instead of journaled apply/undo.
//
// BM_RemapLoop uses the standard catalog (large local DRAM: the delta path
// almost never needs a knapsack); BM_RemapLoopPressured shrinks local DRAM
// below the weight footprint so every probe fights the knapsack frontier —
// the regime the knapsack cache exists for. The preamble table breaks the
// pressured loop down per zoo model (probes, cost per probe, cache hits,
// full-pass fallbacks, retimes).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <utility>

#include "h2h.h"

namespace {

using namespace h2h;

struct Prepared {
  ModelGraph model;
  SystemConfig sys;
  Mapping mapping;
  LocalityPlan plan;
};

Prepared prepare(ModelGraph model, SystemConfig sys) {
  const Simulator sim(model, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(model);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);
  return Prepared{std::move(model), std::move(sys), std::move(mapping),
                  std::move(plan)};
}

/// A DRAM-starved uniform system: capacity far below any zoo model's weight
/// footprint, so the step-2 knapsack frontier moves on every probe.
SystemConfig pressured_system(std::size_t n, Bytes dram_capacity) {
  std::vector<AcceleratorPtr> accs;
  for (std::size_t i = 0; i < n; ++i) {
    AcceleratorSpec spec;
    spec.name = strformat("P%zu", i);
    spec.description = "DRAM-starved bench accelerator";
    spec.board = "bench";
    spec.style = DataflowStyle::MatrixEngine;
    spec.kinds = KindSupport{true, true, true};
    spec.peak_macs_per_cycle = 100;
    spec.pe = PeArray{10, 10};
    spec.freq_hz = 1e9;
    spec.dram_bandwidth = 10e9;
    spec.dram_capacity = dram_capacity;
    spec.energy_per_mac = picojoules(1);
    spec.energy_per_dram_byte = nanojoules(0.1);
    spec.link_power = 1.0;
    accs.push_back(make_analytical(std::move(spec)));
  }
  HostParams host;
  host.bw_acc = 0.125e9;
  return SystemConfig(std::move(accs), host);
}

void run_loop(benchmark::State& state, Prepared& p, const Simulator& sim) {
  std::uint64_t attempts = 0;
  std::uint64_t hits = 0;
  std::uint64_t full_passes = 0;
  for (auto _ : state) {
    Mapping mapping = p.mapping;
    LocalityPlan plan = p.plan;
    const RemapStats stats = data_locality_remapping(sim, mapping, plan);
    attempts += stats.attempts;
    hits += stats.knapsack_hits;
    full_passes += stats.delta_full_passes;
    benchmark::DoNotOptimize(plan.pinned_count());
  }
  state.counters["probes"] = benchmark::Counter(
      static_cast<double>(attempts), benchmark::Counter::kIsRate);
  state.counters["knap_hits"] = benchmark::Counter(
      static_cast<double>(hits), benchmark::Counter::kIsRate);
  state.counters["full_passes"] = benchmark::Counter(
      static_cast<double>(full_passes), benchmark::Counter::kIsRate);
}

void BM_RemapLoop(benchmark::State& state) {
  Prepared p = prepare(make_vlocnet(),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  run_loop(state, p, sim);
}
BENCHMARK(BM_RemapLoop)->Unit(benchmark::kMillisecond);

void BM_RemapLoopPressured(benchmark::State& state) {
  Prepared p = prepare(make_vlocnet(), pressured_system(6, mib(4)));
  const Simulator sim(p.model, p.sys);
  run_loop(state, p, sim);
}
BENCHMARK(BM_RemapLoopPressured)->Unit(benchmark::kMillisecond);

/// Remap-loop seconds for one prepared instance (best of `reps`).
double remap_seconds(const Prepared& p, const Simulator& sim,
                     RemapStats& stats, double& latency, int reps = 3) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Mapping mapping = p.mapping;
    LocalityPlan plan = p.plan;
    const auto t0 = std::chrono::steady_clock::now();
    stats = data_locality_remapping(sim, mapping, plan);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    latency = sim.simulate(mapping, plan).latency;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // Profiled runs (--benchmark_filter present) skip the preamble: its
  // un-timed setup work used to dominate gprof samples and get
  // misattributed to the benchmarks (bench/README.md).
  bool filtered = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) filtered = true;

  if (!filtered) {
    TextTable table({"model", "latency (s)", "remap (ms)", "probes",
                     "us/probe", "knap hit/miss", "full passes", "retimes"},
                    {TextTable::Align::Left});
    for (const ZooInfo& info : zoo_catalog()) {
      Prepared p = prepare(make_model(info.id), pressured_system(6, mib(4)));
      const Simulator sim(p.model, p.sys);
      RemapStats stats;
      double latency = 0;
      const double secs = remap_seconds(p, sim, stats, latency);
      table.add_row(
          {std::string(info.key), strformat("%.6f", latency),
           strformat("%.3f", secs * 1e3), strformat("%u", stats.attempts),
           strformat("%.2f", secs * 1e6 / std::max(stats.attempts, 1u)),
           strformat("%llu/%llu",
                     static_cast<unsigned long long>(stats.knapsack_hits),
                     static_cast<unsigned long long>(stats.knapsack_misses)),
           strformat("%llu", static_cast<unsigned long long>(
                                 stats.delta_full_passes)),
           strformat("%llu",
                     static_cast<unsigned long long>(stats.retimes))});
    }
    std::cout << "step-4 remap loop under DRAM pressure (6 x 4 MiB, "
                 "0.125 GB/s):\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
