// Ablation: steps 1-3 in isolation. bench_ablation_remap_probe covers the
// step-4 remap loop; after that loop went O(touched), steps 1-3 became the
// pipeline bottleneck (ROADMAP). These benches time each front-end step on
// its own so cost-table / worklist / pruning changes show up individually
// instead of being averaged into the full-pipeline time
// (bench_fig4_latency_energy). Simulator construction is timed separately
// because the cost-table build moved the one-time (layer x accelerator)
// model evaluation there.
#include <benchmark/benchmark.h>

#include "h2h.h"

namespace {

using namespace h2h;

void BM_SimulatorConstruction(benchmark::State& state) {
  const ModelGraph model = make_vlocnet();
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  for (auto _ : state) {
    const Simulator sim(model, sys);
    benchmark::DoNotOptimize(&sim);
  }
}
BENCHMARK(BM_SimulatorConstruction)->Unit(benchmark::kMillisecond);

void BM_Step1CompPrioritized(benchmark::State& state) {
  const ModelGraph model = make_vlocnet();
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  const Simulator sim(model, sys);
  for (auto _ : state) {
    const Mapping m = computation_prioritized_mapping(sim);
    benchmark::DoNotOptimize(m.complete());
  }
}
BENCHMARK(BM_Step1CompPrioritized)->Unit(benchmark::kMillisecond);

void BM_Step2WeightLocality(benchmark::State& state) {
  const ModelGraph model = make_vlocnet();
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  const Simulator sim(model, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan base(model);
  base.ensure_acc_count(sys.accelerator_count());
  for (auto _ : state) {
    // The pass writes every pin exactly once with its final value, so the
    // copy only isolates iterations; results are identical either way.
    LocalityPlan plan = base;
    benchmark::DoNotOptimize(
        optimize_weight_locality(sim, mapping, plan));
  }
}
BENCHMARK(BM_Step2WeightLocality)->Unit(benchmark::kMillisecond);

void BM_Step3ActivationFusion(benchmark::State& state) {
  const ModelGraph model = make_vlocnet();
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  const Simulator sim(model, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan base(model);
  base.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, base);
  for (auto _ : state) {
    LocalityPlan plan = base;
    const FusionStats stats = optimize_activation_fusion(sim, mapping, plan);
    benchmark::DoNotOptimize(stats.fused_edges);
  }
}
BENCHMARK(BM_Step3ActivationFusion)->Unit(benchmark::kMillisecond);

void BM_Steps123(benchmark::State& state) {
  // The whole front end (what the full pipeline spends outside the step-4
  // loop), including the per-run Simulator construction the mapper pays.
  const ModelGraph model = make_vlocnet();
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  for (auto _ : state) {
    const Simulator sim(model, sys);
    const Mapping mapping = computation_prioritized_mapping(sim);
    LocalityPlan plan(model);
    plan.ensure_acc_count(sys.accelerator_count());
    optimize_weight_locality(sim, mapping, plan);
    const FusionStats stats = optimize_activation_fusion(sim, mapping, plan);
    benchmark::DoNotOptimize(stats.fused_edges);
  }
}
BENCHMARK(BM_Steps123)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
