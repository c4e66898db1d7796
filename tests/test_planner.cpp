#include <gtest/gtest.h>

#include "core/dynamic_modality.h"
#include "core/planner.h"
#include "model/zoo.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

/// A system of counting LambdaAccelerators (the test_cost_table.cpp trick):
/// every virtual model evaluation bumps the shared counters, pinning down
/// exactly which requests (re)build cost state.
SystemConfig make_counting_system(int& latency_calls, int& energy_calls,
                                  double bw_acc = 1e9) {
  std::vector<AcceleratorPtr> accs;
  for (int i = 0; i < 3; ++i) {
    AcceleratorSpec spec =
        testing::simple_spec(strformat("count%d", i), gib(1));
    spec.peak_macs_per_cycle = 100u << i;
    accs.push_back(std::make_unique<LambdaAccelerator>(
        spec,
        [&latency_calls, spec](const Layer& layer) {
          ++latency_calls;
          return static_cast<double>(layer.macs() + layer.light_ops() + 1) /
                 (static_cast<double>(spec.peak_macs_per_cycle) *
                  spec.freq_hz);
        },
        [&energy_calls](const Layer& layer) {
          ++energy_calls;
          return static_cast<double>(layer.macs()) * 1e-12;
        }));
  }
  return SystemConfig(std::move(accs), HostParams{bw_acc, 0.0});
}

void expect_same_response(const PlanResponse& a, const PlanResponse& b,
                          const ModelGraph& model) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].name, b.steps[i].name);
    // Bit-identical schedules: plain EXPECT_EQ on doubles is deliberate.
    EXPECT_EQ(a.steps[i].result.latency, b.steps[i].result.latency);
    EXPECT_EQ(a.steps[i].result.energy.total(),
              b.steps[i].result.energy.total());
    EXPECT_EQ(a.steps[i].result.host_bytes, b.steps[i].result.host_bytes);
    EXPECT_EQ(a.steps[i].result.local_bytes, b.steps[i].result.local_bytes);
  }
  for (const LayerId id : model.all_layers()) {
    EXPECT_EQ(a.mapping.acc_of(id), b.mapping.acc_of(id));
    EXPECT_EQ(a.mapping.seq_of(id), b.mapping.seq_of(id));
    EXPECT_EQ(a.plan.pinned(id), b.plan.pinned(id));
  }
  EXPECT_EQ(a.plan.fused_edge_count(), b.plan.fused_edge_count());
  EXPECT_EQ(a.remap_stats.passes, b.remap_stats.passes);
  EXPECT_EQ(a.remap_stats.attempts, b.remap_stats.attempts);
  EXPECT_EQ(a.remap_stats.accepted, b.remap_stats.accepted);
}

TEST(PlannerCache, WarmPlanPerformsZeroVirtualModelCalls) {
  int latency_calls = 0;
  int energy_calls = 0;
  const SystemConfig sys = make_counting_system(latency_calls, energy_calls);
  const ModelGraph model = testing::make_mini_mmmt_model();
  Planner planner(sys);

  const PlanResponse cold = planner.plan(PlanRequest::for_graph(model, 0.0));
  EXPECT_FALSE(cold.warm);
  EXPECT_GT(cold.setup_seconds, 0.0);
  EXPECT_GT(latency_calls, 0);  // the session build is the one evaluation
  EXPECT_GT(energy_calls, 0);
  const int lat_after_build = latency_calls;
  const int energy_after_build = energy_calls;

  const PlanResponse warm = planner.plan(PlanRequest::for_graph(model, 0.0));
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.setup_seconds, 0.0);
  EXPECT_EQ(latency_calls, lat_after_build);
  EXPECT_EQ(energy_calls, energy_after_build);
  EXPECT_EQ(planner.cache_hits(), 1u);
  EXPECT_EQ(planner.cache_misses(), 1u);
  expect_same_response(cold, warm, model);
}

TEST(PlannerCache, RebuildsExactlyWhenModelBandwidthOrBatchChanges) {
  int latency_calls = 0;
  int energy_calls = 0;
  PlannerOptions options;
  options.system_factory = [&latency_calls, &energy_calls](double bw) {
    return make_counting_system(latency_calls, energy_calls, bw);
  };
  Planner planner(std::move(options));
  const ModelGraph mmmt = testing::make_mini_mmmt_model();
  const ModelGraph chain = testing::make_chain_model();

  const auto calls = [&] { return latency_calls + energy_calls; };

  (void)planner.plan(PlanRequest::for_graph(mmmt, 1e9));
  EXPECT_GT(calls(), 0);

  // Same (model, bw, batch): no rebuild.
  int snapshot = calls();
  (void)planner.plan(PlanRequest::for_graph(mmmt, 1e9));
  EXPECT_EQ(calls(), snapshot);

  // New bandwidth: new session.
  (void)planner.plan(PlanRequest::for_graph(mmmt, 2e9));
  EXPECT_GT(calls(), snapshot);

  // Both sessions stay cached: revisiting either is free.
  snapshot = calls();
  (void)planner.plan(PlanRequest::for_graph(mmmt, 1e9));
  (void)planner.plan(PlanRequest::for_graph(mmmt, 2e9));
  EXPECT_EQ(calls(), snapshot);

  // New batch: new session.
  (void)planner.plan(PlanRequest::for_graph(mmmt, 1e9, 4));
  EXPECT_GT(calls(), snapshot);

  // New model: new session.
  snapshot = calls();
  (void)planner.plan(PlanRequest::for_graph(chain, 1e9));
  EXPECT_GT(calls(), snapshot);

  EXPECT_EQ(planner.cache_misses(), 4u);
  EXPECT_EQ(planner.cache_hits(), 3u);
  EXPECT_EQ(planner.session_count(), 4u);

  planner.clear_sessions();
  snapshot = calls();
  (void)planner.plan(PlanRequest::for_graph(mmmt, 1e9));
  EXPECT_GT(calls(), snapshot);  // cold again after clear
}

TEST(PlannerCache, SharedSystemFollowsLazyRebuildWhenBandwidthMoves) {
  int latency_calls = 0;
  int energy_calls = 0;
  SystemConfig sys = make_counting_system(latency_calls, energy_calls);
  const ModelGraph model = testing::make_mini_mmmt_model();
  Planner planner(sys);

  (void)planner.plan(PlanRequest::for_graph(model, 0.0));
  const int snapshot = latency_calls + energy_calls;

  // Mutating the borrowed system's BW_acc stales the cached CostTable; the
  // session is reused (shared mode keys on the model alone) but the next
  // request rebuilds the table — exactly once, billed as setup and
  // reported not-warm.
  sys.set_bw_acc(2e9);
  const PlanResponse r = planner.plan(PlanRequest::for_graph(model, 0.0));
  EXPECT_FALSE(r.warm);
  EXPECT_GT(r.setup_seconds, 0.0);
  EXPECT_GT(latency_calls + energy_calls, snapshot);

  const int rebuilt = latency_calls + energy_calls;
  const PlanResponse again = planner.plan(PlanRequest::for_graph(model, 0.0));
  EXPECT_TRUE(again.warm);
  EXPECT_EQ(latency_calls + energy_calls, rebuilt);
}

TEST(PlannerCache, EvictsLeastRecentlyUsedSession) {
  PlannerOptions options;
  options.max_sessions = 2;
  // One lock shard reproduces the exact global-LRU order this test pins;
  // the default sharded cache enforces capacity per shard instead.
  options.shards = 1;
  Planner planner(std::move(options));
  const ModelGraph model = testing::make_mini_mmmt_model();

  // Three distinct bandwidth sessions through a capacity-2 cache.
  (void)planner.plan(PlanRequest::for_graph(model, 1e9));
  (void)planner.plan(PlanRequest::for_graph(model, 2e9));
  (void)planner.plan(PlanRequest::for_graph(model, 3e9));
  EXPECT_EQ(planner.session_count(), 2u);

  // 1e9 was evicted; 3e9 and 2e9 survive (most recently used order).
  EXPECT_TRUE(planner.plan(PlanRequest::for_graph(model, 3e9)).warm);
  EXPECT_TRUE(planner.plan(PlanRequest::for_graph(model, 2e9)).warm);
  EXPECT_FALSE(planner.plan(PlanRequest::for_graph(model, 1e9)).warm);
  EXPECT_EQ(planner.cache_misses(), 4u);
}

TEST(PlannerRequest, ExactlyOneModelSourceRequired) {
  Planner planner;
  PlanRequest neither;
  EXPECT_THROW((void)planner.plan(neither), ContractViolation);

  const ModelGraph model = testing::make_mini_mmmt_model();
  PlanRequest both = PlanRequest::for_graph(model, 1e9);
  both.model = ZooModel::MoCap;
  EXPECT_THROW((void)planner.plan(both), ContractViolation);
}

// The acceptance pin: the default pipeline through Planner reproduces the
// one-shot plan_once() bit-for-bit across the zoo grid.
class PlannerBitIdentityTest
    : public ::testing::TestWithParam<std::tuple<ZooModel, BandwidthSetting>> {
};

TEST_P(PlannerBitIdentityTest, MatchesPlanOnceBitForBit) {
  const auto [model_id, bw] = GetParam();
  const ModelGraph model = make_model(model_id);
  const SystemConfig sys = SystemConfig::standard(bw);

  const PlanResponse legacy = plan_once(model, sys);

  Planner planner;
  const PlanResponse cold = planner.plan(PlanRequest::zoo(model_id, bw));
  expect_same_response(legacy, cold, model);

  const PlanResponse warm = planner.plan(PlanRequest::zoo(model_id, bw));
  EXPECT_TRUE(warm.warm);
  expect_same_response(legacy, warm, model);
}

INSTANTIATE_TEST_SUITE_P(
    ZooGrid, PlannerBitIdentityTest,
    ::testing::Combine(::testing::Values(ZooModel::VLocNet,
                                         ZooModel::CasiaSurf, ZooModel::Vfs,
                                         ZooModel::FaceBag, ZooModel::CnnLstm,
                                         ZooModel::MoCap),
                       ::testing::Values(BandwidthSetting::LowMinus,
                                         BandwidthSetting::Mid)),
    [](const ::testing::TestParamInfo<
        std::tuple<ZooModel, BandwidthSetting>>& info) {
      std::string name(zoo_info(std::get<0>(info.param)).key);
      for (char& c : name)
        if (c == '-') c = '_';
      return name + (std::get<1>(info.param) == BandwidthSetting::LowMinus
                         ? "_LowMinus"
                         : "_Mid");
    });

TEST(PlanResponseAccessors, BaselineIsLookedUpByNameNotIndex) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system(0.125e9);
  Planner planner(sys);

  const PlanResponse full = planner.plan(PlanRequest::for_graph(model, 0.0));
  ASSERT_EQ(full.steps.size(), 4u);
  EXPECT_EQ(&full.baseline_result(), &full.steps[1].result);

  // With step 2 toggled off, steps[1] is the fusion snapshot; the named
  // lookup must refuse rather than silently return the wrong step (the old
  // raw-index accessor did exactly that).
  PlanRequest no_weight = PlanRequest::for_graph(model, 0.0);
  no_weight.options.run_weight_locality = false;
  const PlanResponse skipped = planner.plan(no_weight);
  ASSERT_GE(skipped.steps.size(), 2u);
  EXPECT_EQ(skipped.steps[1].name, "3: activation fusion");
  EXPECT_THROW((void)skipped.baseline_result(), ContractViolation);
  EXPECT_THROW((void)skipped.latency_vs_baseline(), ContractViolation);
}

TEST(PlanResponseAccessors, StepOneOnlyRegression) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  Planner planner(sys);

  PlanRequest request = PlanRequest::for_graph(model, 0.0);
  request.options.run_weight_locality = false;
  request.options.run_fusion = false;
  request.options.run_remapping = false;
  const PlanResponse r = planner.plan(request);

  ASSERT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].name, "1: computation-prioritized");
  EXPECT_EQ(&r.final_result(), &r.steps[0].result);
  EXPECT_THROW((void)r.baseline_result(), ContractViolation);
  EXPECT_NO_THROW(r.mapping.validate(model, sys));
}

TEST(PlannerTimeBudget, ExhaustedBudgetStopsRemappingCleanly) {
  const ModelGraph model = make_model(ZooModel::CasiaSurf);
  Planner planner;
  PlanRequest request =
      PlanRequest::zoo(ZooModel::CasiaSurf, BandwidthSetting::LowMinus);
  const PlanResponse unbounded = planner.plan(request);
  EXPECT_FALSE(unbounded.stopped_on_budget);

  request.options.time_budget_s = 1e-9;  // exhausted before first move probe
  const PlanResponse budgeted = planner.plan(request);
  EXPECT_TRUE(budgeted.stopped_on_budget);
  EXPECT_TRUE(budgeted.remap_stats.stopped_on_budget);
  ASSERT_EQ(budgeted.steps.size(), 4u);  // the step still snapshots
  EXPECT_NO_THROW(budgeted.mapping.validate(
      model, SystemConfig::standard(BandwidthSetting::LowMinus)));
  // A truncated search can never beat the converged one.
  EXPECT_GE(budgeted.final_result().latency,
            unbounded.final_result().latency);

  // A generous budget changes nothing: bit-identical to the unbounded run.
  request.options.time_budget_s = 1e6;
  const PlanResponse generous = planner.plan(request);
  EXPECT_FALSE(generous.stopped_on_budget);
  expect_same_response(unbounded, generous, model);
}

TEST(PlannerWarmStart, SeedsPipelineFromPriorResponse) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system(0.125e9);
  Planner planner(sys);

  const PlanRequest request = PlanRequest::for_graph(model, 0.0);
  const PlanResponse first = planner.plan(request);

  PlanRequest resumed = request;
  resumed.warm_start = &first.mapping;
  const PlanResponse second = planner.plan(resumed);
  EXPECT_EQ(second.steps[0].name, "1: warm start");
  // Re-optimizing from the converged mapping cannot regress it.
  EXPECT_LE(second.final_result().latency,
            first.final_result().latency * (1.0 + 1e-12));
  EXPECT_NO_THROW(second.mapping.validate(model, sys));

  // A warm start from a different model is rejected.
  const ModelGraph other = testing::make_chain_model();
  Planner other_planner(sys);
  PlanRequest mismatched = PlanRequest::for_graph(other, 0.0);
  mismatched.warm_start = &first.mapping;
  EXPECT_THROW((void)other_planner.plan(mismatched), ContractViolation);
}

TEST(PlannerPipelines, DynamicModalityRoundsReuseSessions) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  DynamicModalityMapper mapper(sys);
  const ModelGraph full = make_model(ZooModel::MoCap);
  const std::uint32_t two[] = {1, 2};
  const ModelGraph sub = subset_model(full, two);

  EXPECT_FALSE(mapper.remap(full).h2h.warm);   // cold: builds the session
  EXPECT_FALSE(mapper.remap(sub).h2h.warm);    // different variant: cold
  EXPECT_TRUE(mapper.remap(full).h2h.warm);    // revisited: warm
  EXPECT_TRUE(mapper.remap(sub).h2h.warm);
  EXPECT_EQ(mapper.planner().cache_misses(), 2u);
  EXPECT_EQ(mapper.planner().cache_hits(), 2u);
}

TEST(PlanOnce, PipelineProducesFourMonotoneSteps) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system(0.125e9);
  const PlanResponse r = plan_once(m, sys);

  ASSERT_EQ(r.steps.size(), 4u);
  // Each locality step can only shorten layer durations; FIFO list
  // scheduling makes finish times monotone in durations.
  EXPECT_LE(r.steps[1].result.latency, r.steps[0].result.latency);
  EXPECT_LE(r.steps[2].result.latency, r.steps[1].result.latency);
  EXPECT_LE(r.steps[3].result.latency, r.steps[2].result.latency);
  EXPECT_NO_THROW(r.mapping.validate(m, sys));
  EXPECT_GT(r.final_result().energy.total(), 0.0);
  EXPECT_GE(r.search_seconds, 0.0);
  // The paper's baseline is the step-2 snapshot.
  EXPECT_DOUBLE_EQ(r.latency_vs_baseline(),
                   r.final_result().latency / r.steps[1].result.latency);
  EXPECT_LE(r.latency_vs_baseline(), 1.0);
}

TEST(PlanOnce, RemappingCanBeDisabled) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  PlanOptions opts;
  opts.run_remapping = false;
  const PlanResponse r = plan_once(m, sys, opts);
  EXPECT_EQ(r.steps.size(), 3u);
  EXPECT_EQ(r.remap_stats.accepted, 0u);
}

TEST(PlanOnce, RejectsInvalidModels) {
  const ModelGraph empty("empty");
  const SystemConfig sys = testing::make_mini_hetero_system();
  EXPECT_THROW((void)plan_once(empty, sys), ConfigError);
}

TEST(PlanOnce, DeterministicEndToEnd) {
  const ModelGraph m = make_model(ZooModel::MoCap);
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  const PlanResponse a = plan_once(m, sys);
  const PlanResponse b = plan_once(m, sys);
  expect_same_response(a, b, m);
}

// The paper's headline claims on the real zoo and the standard system.
class ZooPipelineTest : public ::testing::TestWithParam<ZooModel> {};

TEST_P(ZooPipelineTest, StepwiseMonotoneAtLowBandwidth) {
  const ModelGraph m = make_model(GetParam());
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  const PlanResponse r = plan_once(m, sys);
  ASSERT_EQ(r.steps.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_LE(r.steps[i].result.latency, r.steps[i - 1].result.latency)
        << "step " << i;
  // The paper's headline: H2H beats the computation-prioritized baseline
  // when bandwidth-bound (15-74% reduction; we require at least 10%).
  EXPECT_LT(r.latency_vs_baseline(), 0.90);
  EXPECT_LT(r.energy_vs_baseline(), 1.0);
  // Fig. 5a direction: the computation share rises after H2H. For LSTM
  // models whose *baseline* strands a layer on a re-fetch-bound engine, the
  // baseline's compute side is artificially inflated, so the ratio check is
  // asserted on absolute host-communication time instead.
  if (GetParam() == ZooModel::CnnLstm || GetParam() == ZooModel::MoCap) {
    EXPECT_LE(r.final_result().host_time,
              r.baseline_result().host_time * 1.05);
  } else {
    EXPECT_GT(r.final_result().comp_ratio(), r.baseline_result().comp_ratio());
  }
}

TEST_P(ZooPipelineTest, SearchTimeUnderOneSecond) {
  const ModelGraph m = make_model(GetParam());
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  const PlanResponse r = plan_once(m, sys);
  // Fig. 5(b): "consistently low" (relaxed in unoptimized builds).
  EXPECT_LT(r.search_seconds, testing::search_time_budget());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooPipelineTest,
                         ::testing::Values(ZooModel::VLocNet,
                                           ZooModel::CasiaSurf, ZooModel::Vfs,
                                           ZooModel::FaceBag, ZooModel::CnnLstm,
                                           ZooModel::MoCap),
                         [](const ::testing::TestParamInfo<ZooModel>& i) {
                           std::string name(zoo_info(i.param).key);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(PlanOnce, ReductionShrinksWithBandwidth) {
  // Fig. 4 trend: higher BW_acc -> smaller relative H2H gain.
  const ModelGraph m = make_model(ZooModel::CasiaSurf);
  const SystemConfig low = SystemConfig::standard(BandwidthSetting::LowMinus);
  const SystemConfig high = SystemConfig::standard(BandwidthSetting::High);
  const double gain_low = 1.0 - plan_once(m, low).latency_vs_baseline();
  const double gain_high = 1.0 - plan_once(m, high).latency_vs_baseline();
  EXPECT_GT(gain_low, gain_high);
}

TEST(ModelFingerprint, DistinguishesStructureNotBatch) {
  const ModelGraph a = testing::make_mini_mmmt_model();
  ModelGraph b = testing::make_mini_mmmt_model();
  EXPECT_EQ(model_fingerprint(a), model_fingerprint(b));

  b.set_batch(8);  // batch is a separate cache-key component
  EXPECT_EQ(model_fingerprint(a), model_fingerprint(b));

  const ModelGraph full = make_model(ZooModel::MoCap);
  const std::uint32_t one[] = {1};
  const std::uint32_t two[] = {1, 2};
  // Subset variants share a name but differ structurally.
  EXPECT_NE(model_fingerprint(subset_model(full, one)),
            model_fingerprint(subset_model(full, two)));
}

}  // namespace
}  // namespace h2h
