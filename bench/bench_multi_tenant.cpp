// Multi-tenant co-mapping experiment (DESIGN.md §11): three always-on
// perception tenants share one 1G-Ethernet system. Planned independently
// ("sequential" deployment — each tenant maps as if alone, then all run
// together) they contend for the fast conv boards and blow their deadlines;
// the CoMapper plans the union model as one H2H problem and meets every
// SLO. The preamble asserts that separation — sequential violation > 0,
// co-mapped violation == 0 — so a regression in the co-mapper fails the
// bench run loudly instead of silently shifting the timings.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "h2h.h"

namespace {

using namespace h2h;

/// The validated 3-tenant fixture: camera face-recognition (tight SLO,
/// highest priority), activity recognition, and emotion recognition on a
/// 0.125 GB/s (1G Ethernet) system.
std::vector<TenantRequest> three_tenants() {
  std::vector<TenantRequest> tenants(3);
  tenants[0].name = "cam";
  tenants[0].model = ZooModel::CasiaSurf;
  tenants[0].slo_s = 0.012;
  tenants[0].priority = 3;
  tenants[1].name = "act";
  tenants[1].model = ZooModel::CnnLstm;
  tenants[1].slo_s = 0.010;
  tenants[1].priority = 2;
  tenants[2].name = "emo";
  tenants[2].model = ZooModel::MoCap;
  tenants[2].slo_s = 0.010;
  tenants[2].priority = 1;
  return tenants;
}

SystemConfig bench_system() {
  return SystemConfig::standard(bandwidth_value(BandwidthSetting::LowMinus));
}

void BM_CoMap_3Tenants(benchmark::State& state) {
  const SystemConfig sys = bench_system();
  const TenantSet set(three_tenants());
  for (auto _ : state) {
    CoMapper comapper(sys);
    const CoMapResult r = comapper.co_map(set);
    benchmark::DoNotOptimize(r.schedule.latency);
  }
}
BENCHMARK(BM_CoMap_3Tenants)->Unit(benchmark::kMillisecond);

void BM_CoMap_3Tenants_WarmPlanner(benchmark::State& state) {
  // The CoMapper's Planner holds warm solo and union sessions after the
  // first call — the steady-state cost of re-co-mapping (e.g. serve
  // answering a repeated tenants request).
  const SystemConfig sys = bench_system();
  const TenantSet set(three_tenants());
  CoMapper comapper(sys);
  benchmark::DoNotOptimize(comapper.co_map(set).schedule.latency);
  for (auto _ : state) {
    const CoMapResult r = comapper.co_map(set);
    benchmark::DoNotOptimize(r.schedule.latency);
  }
}
BENCHMARK(BM_CoMap_3Tenants_WarmPlanner)->Unit(benchmark::kMillisecond);

void BM_Sequential_3Tenants(benchmark::State& state) {
  // The baseline the co-mapper replaces: every tenant planned alone on the
  // idle system (the contention nobody charges for).
  const SystemConfig sys = bench_system();
  const TenantSet set(three_tenants());
  for (auto _ : state) {
    double total = 0;
    for (std::size_t i = 0; i < set.size(); ++i)
      total += plan_once(set.model(i), sys).final_result().latency;
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_Sequential_3Tenants)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const SystemConfig sys = bench_system();
  const TenantSet set(three_tenants());
  CoMapper comapper(sys);
  const CoMapResult result = comapper.co_map(set);

  TextTable table({"tenant", "prio", "slo (s)", "solo (s)", "sequential (s)",
                   "co-mapped (s)", "slo met"},
                  {TextTable::Align::Left});
  for (const TenantOutcome& t : result.tenants)
    table.add_row({t.name, strformat("%u", t.priority),
                   strformat("%.6f", t.slo_s),
                   strformat("%.6f", t.solo_latency_s),
                   strformat("%.6f", t.seq_latency_s),
                   strformat("%.6f", t.latency_s), t.met ? "yes" : "MISS"});

  std::cout << "multi-tenant co-mapping experiment (3 tenants, 0.125 GB/s "
               "links):\n";
  table.print(std::cout);
  std::cout << strformat(
      "\nmakespan: co-mapped %.6f s vs sequential %.6f s; priority-weighted "
      "SLO violation %.6f s vs %.6f s sequential (%u round(s)%s)\n\n",
      result.schedule.latency, result.seq_makespan_s, result.violation_s,
      result.seq_violation_s, result.rounds,
      result.steal_ran ? " plus the steal round" : "");

  // The claim this bench exists to demonstrate: sequential deployment
  // misses SLOs that co-mapping meets.
  if (!(result.seq_violation_s > 0)) {
    std::cerr << "FAIL: sequential deployment was expected to violate SLOs "
                 "on this fixture (got violation "
              << result.seq_violation_s << " s)\n";
    return EXIT_FAILURE;
  }
  if (!result.all_slos_met || result.violation_s != 0) {
    std::cerr << "FAIL: co-mapping was expected to meet every SLO (got "
                 "violation "
              << result.violation_s << " s)\n";
    return EXIT_FAILURE;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
