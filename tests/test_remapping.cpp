#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "accel/analytical_models.h"
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

// Work counters of the step-4 loop on 12 of the 30 cells ci/uniform_fixtures
// pins byte for byte (zoo x {Low-, Mid}). attempts and accepted are the
// search's decisions, which neither the critical-chain cut in the probes nor
// the moves decided without a probe change (attempts counts both). retimes
// counts schedule visits, and both keep it low: without the cut vlocnet @
// Low- reads 150,452, without the unprobed decisions 35,208, with both
// 29,972. A change that stops either from firing passes every exactness pin
// but fails here.
TEST(Remapping, WorkCountersOnUniformFixtureCells) {
  struct Cell {
    ZooModel model;
    BandwidthSetting bw;
    std::uint32_t attempts;
    std::uint32_t accepted;
    std::uint64_t retimes;
  };
  constexpr BandwidthSetting kLowMinus = BandwidthSetting::LowMinus;
  constexpr BandwidthSetting kMid = BandwidthSetting::Mid;
  const Cell cells[] = {
      {ZooModel::VLocNet, kLowMinus, 1632, 94, 29972},
      {ZooModel::VLocNet, kMid, 2516, 105, 33617},
      {ZooModel::CasiaSurf, kLowMinus, 508, 46, 4372},
      {ZooModel::CasiaSurf, kMid, 316, 20, 1863},
      {ZooModel::Vfs, kLowMinus, 80, 2, 55},
      {ZooModel::Vfs, kMid, 80, 2, 55},
      {ZooModel::FaceBag, kLowMinus, 729, 43, 5369},
      {ZooModel::FaceBag, kMid, 512, 41, 4698},
      {ZooModel::CnnLstm, kLowMinus, 28, 7, 175},
      {ZooModel::CnnLstm, kMid, 27, 6, 138},
      {ZooModel::MoCap, kLowMinus, 40, 8, 215},
      {ZooModel::MoCap, kMid, 26, 5, 115},
  };
  for (const Cell& c : cells) {
    Prepared p = prepare(make_model(c.model), SystemConfig::standard(c.bw));
    const Simulator sim(p.model, p.sys);
    const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan);
    const std::string cell = strformat(
        "%s @ %s", std::string(zoo_info(c.model).key).c_str(),
        std::string(to_string(c.bw)).c_str());
    EXPECT_EQ(stats.attempts, c.attempts) << cell;
    EXPECT_EQ(stats.accepted, c.accepted) << cell;
    EXPECT_EQ(stats.retimes, c.retimes) << cell;
  }
}

// move_is_local must count the buffers of the edges a move makes
// co-located, on both sides of the moved layer. Each case moves one layer
// from U0 (room for everything) to U1, whose capacity is either one byte
// short of what U1 then holds (its weights plus the new buffers), so step 3
// there takes its full pass and the move is not local, or the predicate's
// own bound (every incident edge counted), where both passes stay local.
TEST(Remapping, LocalMovePredicateCountsNewBuffers) {
  struct Case {
    ModelGraph model;
    std::vector<std::uint32_t> accs;  // per non-input layer, in id order
    LayerId node;
    std::vector<LayerId> beside;  // U1 before the move: node neighbours
  };
  Case cases[] = {
      // chain: convB joins convA, so convA->convB fuses (an in-edge).
      {testing::make_chain_model(), {1, 0, 0}, LayerId{2}, {LayerId{1}}},
      // diamond: a joins b and c, so a->b and a->c fuse (two out-edges).
      {testing::make_diamond_model(),
       {0, 1, 1, 0, 0},
       LayerId{1},
       {LayerId{2}, LayerId{3}}},
  };
  for (const Case& c : cases) {
    const ModelGraph& m = c.model;
    const auto on_u1 = [&c](LayerId id) {
      return std::ranges::count(c.beside, id) > 0;
    };
    // What U1 holds after the move, and move_is_local's bound on it.
    Bytes fits = m.weight_bytes(c.node);
    for (const LayerId b : c.beside) fits += m.weight_bytes(b);
    Bytes bound = fits;
    for (const LayerId p : m.graph().preds(c.node)) {
      bound += m.edge_bytes(p);
      if (on_u1(p)) fits += m.edge_bytes(p);
    }
    for (const LayerId s : m.graph().succs(c.node)) {
      bound += m.edge_bytes(c.node);
      if (on_u1(s)) fits += m.edge_bytes(c.node);
    }
    ASSERT_LT(fits, bound) << m.name();

    for (const Bytes capacity : {fits - 1, bound}) {
      std::vector<AcceleratorPtr> accs;
      accs.push_back(make_analytical(testing::simple_spec("U0", gib(1))));
      accs.push_back(make_analytical(testing::simple_spec("U1", capacity)));
      const SystemConfig sys(std::move(accs), HostParams{});
      const Simulator sim(m, sys);
      Mapping mapping(m);
      std::size_t k = 0;
      for (const LayerId id : m.all_layers())
        if (m.layer(id).kind != LayerKind::Input)
          mapping.assign(id, AccId{c.accs[k++]});
      LocalityPlan plan(m);
      plan.ensure_acc_count(2);
      optimize_weight_locality(sim, mapping, plan);
      optimize_activation_fusion(sim, mapping, plan);

      RemapDeltaState delta(sim, {}, {});
      delta.init(mapping, plan);
      const std::string at = m.name() + " @ " + std::to_string(capacity);
      const bool local = delta.move_is_local(c.node, AccId{0}, AccId{1});
      EXPECT_EQ(local, capacity == bound) << at;
      delta.begin_probe(AccId{0}, AccId{1});
      mapping.reassign(c.node, AccId{1});
      delta.apply_move(mapping, plan, c.node, AccId{0}, AccId{1});
      EXPECT_EQ(delta.stats().full_weight, 0u) << at;
      EXPECT_EQ(delta.stats().full_fusion, local ? 0u : 1u) << at;
    }
  }
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
