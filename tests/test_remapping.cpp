#include <gtest/gtest.h>

#include <utility>

#include "core/comp_prioritized.h"
#include "core/remapping.h"
#include "test_helpers.h"

namespace h2h {
namespace {

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

TEST(Remapping, NeverIncreasesLatency) {
  Prepared p = prepare(testing::make_mini_mmmt_model(),
                       testing::make_mini_hetero_system(0.125e9));
  const Simulator sim(p.model, p.sys);
  const double before = sim.simulate(p.mapping, p.plan).latency;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan);
  const double after = sim.simulate(p.mapping, p.plan).latency;
  EXPECT_LE(after, before);
  EXPECT_GE(stats.passes, 1u);
  EXPECT_GE(stats.attempts, stats.accepted);
}

TEST(Remapping, MappingStaysValidAfterMoves) {
  Prepared p = prepare(make_model(ZooModel::MoCap),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  (void)data_locality_remapping(sim, p.mapping, p.plan);
  EXPECT_NO_THROW(p.mapping.validate(p.model, p.sys));
}

// The library loop (journaled probes, delta steps 2-3, overlay schedule)
// against the copy-and-resimulate reference search under the energy-aware
// objective, whose probes read the incremental schedule's energy
// aggregation: same moves, same plan, same latency and energy bit for bit.
// (The latency objective is checked the same way below.)
TEST(Remapping, IncrementalAndFullResimAgree) {
  for (const ZooInfo& info : zoo_catalog()) {
    for (const BandwidthSetting bw : all_bandwidth_settings()) {
      Prepared p = prepare(make_model(info.id), SystemConfig::standard(bw));
      const Simulator sim(p.model, p.sys);
      RemapOptions opts;
      opts.objective = RemapObjective::EnergyDelayProduct;
      EXPECT_EQ(testing::compare_remap_with_reference(sim, p.mapping, p.plan,
                                                      opts)
                    .diff,
                "")
          << info.key << " @ " << to_string(bw);
    }
  }
}

// The delta-evaluated probe path (member lists + delta steps-2/3 + overlay
// schedule probe + knapsack cache) must land on exactly the state the
// reference's full steps-2/3 passes produce: same moves, same pins/fusion,
// same latency bit for bit, across the zoo at a low and a mid bandwidth.
TEST(Remapping, DeltaAndFullLocalityPassesAgreeBitExactly) {
  for (const ZooInfo& info : zoo_catalog()) {
    for (const BandwidthSetting bw :
         {BandwidthSetting::LowMinus, BandwidthSetting::Mid}) {
      Prepared p = prepare(make_model(info.id), SystemConfig::standard(bw));
      const Simulator sim(p.model, p.sys);
      EXPECT_EQ(
          testing::compare_remap_with_reference(sim, p.mapping, p.plan).diff,
          "")
          << info.key << " @ " << to_string(bw);
    }
  }
}

// Under DRAM pressure the delta path falls back to real knapsack solves;
// the cache must then serve the repeated source-accelerator instances and
// still match the reference, which solves every knapsack from scratch.
TEST(Remapping, KnapsackCacheReusesSourceSolvesUnderPressure) {
  // Capacity far below the total weight footprint forces the solver on
  // nearly every probe (the mini MMMT model carries ~25 KiB of weights).
  {
    Prepared p = prepare(testing::make_mini_mmmt_model(),
                         testing::make_uniform_system(3, 0.125e9, kib(8)));
    const Simulator sim(p.model, p.sys);
    const testing::RemapComparison cmp =
        testing::compare_remap_with_reference(sim, p.mapping, p.plan);
    EXPECT_EQ(cmp.diff, "") << "mini-mmmt @ 8 KiB";
    EXPECT_GT(cmp.library.delta_full_passes, 0u);  // pressure hit fallback
    EXPECT_GT(cmp.library.knapsack_misses, 0u);
    EXPECT_GT(cmp.library.knapsack_hits, 0u);  // src solves repeat
  }
  // The zoo under the same starvation, from tiny to merely tight DRAM.
  std::uint64_t zoo_hits = 0;
  for (const ZooInfo& info : zoo_catalog()) {
    for (const Bytes capacity : {kib(8), mib(1), mib(4)}) {
      Prepared p = prepare(make_model(info.id),
                           testing::make_uniform_system(3, 0.125e9, capacity));
      const Simulator sim(p.model, p.sys);
      const testing::RemapComparison cmp =
          testing::compare_remap_with_reference(sim, p.mapping, p.plan);
      EXPECT_EQ(cmp.diff, "") << info.key << " @ " << capacity << " B";
      zoo_hits += cmp.library.knapsack_hits;
    }
  }
  EXPECT_GT(zoo_hits, 0u);
}

TEST(Remapping, ReducesHostTrafficAtLowBandwidth) {
  Prepared p = prepare(make_model(ZooModel::CasiaSurf),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  const Bytes host_before = sim.simulate(p.mapping, p.plan).host_bytes;
  (void)data_locality_remapping(sim, p.mapping, p.plan);
  const Bytes host_after = sim.simulate(p.mapping, p.plan).host_bytes;
  EXPECT_LT(host_after, host_before);
}

TEST(Remapping, TerminatesWithinMaxPasses) {
  Prepared p = prepare(make_model(ZooModel::FaceBag),
                       SystemConfig::standard(BandwidthSetting::Low));
  const Simulator sim(p.model, p.sys);
  RemapOptions opts;
  opts.max_passes = 3;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan, opts);
  EXPECT_LE(stats.passes, 3u);
}

TEST(Remapping, NoOpWhenAlreadyOptimal) {
  // Single accelerator: there is nowhere to move anything.
  Prepared p = prepare(testing::make_chain_model(),
                       testing::make_uniform_system(1));
  const Simulator sim(p.model, p.sys);
  const double before = sim.simulate(p.mapping, p.plan).latency;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_DOUBLE_EQ(sim.simulate(p.mapping, p.plan).latency, before);
}

TEST(Remapping, AcceptedMovesMatchLatencyTrajectory) {
  // Strict-decrease acceptance: with zero epsilon tolerance the final
  // latency must be strictly lower than the start when moves were accepted.
  Prepared p = prepare(make_model(ZooModel::MoCap),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  const double before = sim.simulate(p.mapping, p.plan).latency;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan);
  const double after = sim.simulate(p.mapping, p.plan).latency;
  if (stats.accepted > 0) EXPECT_LT(after, before);
  else EXPECT_DOUBLE_EQ(after, before);
}

}  // namespace
}  // namespace h2h
