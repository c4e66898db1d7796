#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/activation_fusion.h"
#include "core/comp_prioritized.h"
#include "core/weight_locality.h"
#include "system/incremental.h"
#include "test_helpers.h"

namespace h2h {
namespace {

void expect_same_timings(const IncrementalSchedule& inc, const Simulator& sim,
                         const Mapping& m, const LocalityPlan& plan) {
  const ScheduleResult full = sim.simulate(m, plan);
  for (std::uint32_t i = 0; i < full.timings.size(); ++i) {
    const LayerTiming& a = inc.timing(LayerId{i});
    const LayerTiming& b = full.timings[i];
    EXPECT_DOUBLE_EQ(a.start, b.start) << "node " << i;
    EXPECT_DOUBLE_EQ(a.finish, b.finish) << "node " << i;
    EXPECT_DOUBLE_EQ(a.duration(), b.duration()) << "node " << i;
  }
  EXPECT_DOUBLE_EQ(inc.latency(), full.latency);
  const ScheduleResult agg = inc.result(m);
  EXPECT_DOUBLE_EQ(agg.energy.total(), full.energy.total());
  EXPECT_DOUBLE_EQ(agg.comp_time, full.comp_time);
  EXPECT_DOUBLE_EQ(agg.host_time, full.host_time);
}

// Moves `node` to `dst` and re-runs steps 2-3 on the touched pair under the
// plan journal. Returns the journal's touched layers: the dirty set
// IncrementalSchedule::apply_remap re-reads.
std::vector<LayerId> move_and_relocalize(const Simulator& sim, Mapping& mapping,
                                         LocalityPlan& plan, LayerId node,
                                         AccId dst) {
  const std::array<AccId, 2> touched{mapping.acc_of(node), dst};
  mapping.reassign(node, dst);
  plan.begin_journal();
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  std::vector<LayerId> dirty;
  plan.journal_touched_layers(sim.model(), dirty);
  plan.commit_journal();
  return dirty;
}

TEST(Incremental, ResetMatchesFullSimulation) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);
  expect_same_timings(inc, sim, mapping, plan);
}

TEST(Incremental, ComponentRefreshAfterPinning) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  // Pin everything (weight-locality pass) and refresh all layers.
  optimize_weight_locality(sim, mapping, plan);
  const std::vector<LayerId> all = m.all_layers();
  inc.refresh_components(mapping, plan, all);
  expect_same_timings(inc, sim, mapping, plan);
}

TEST(Incremental, RemapMatchesFullSimulation) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  // Move one fc layer between the generic and LSTM accelerators.
  LayerId victim{};
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::FullyConnected) victim = id;
  ASSERT_TRUE(victim.valid());
  const AccId src = mapping.acc_of(victim);
  const AccId dst = src == AccId{1} ? AccId{2} : AccId{1};

  const std::vector<LayerId> dirty =
      move_and_relocalize(sim, mapping, plan, victim, dst);
  inc.apply_remap(mapping, plan, victim, src, dirty);

  expect_same_timings(inc, sim, mapping, plan);
  EXPECT_GT(inc.retime_count(), 0u);
}

// Regression for the static-power accounting drift: both simulators must
// derive the static term from the one shared SystemConfig::static_energy
// helper, so with a nonzero idle power the EnergyBreakdowns have to be
// bit-identical field by field.
TEST(Incremental, EnergyIdenticalToSimulatorUnderStaticPower) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  std::vector<AcceleratorPtr> accs;
  accs.push_back(make_analytical(testing::simple_spec("U0", gib(1))));
  accs.push_back(make_analytical(testing::simple_spec("U1", gib(1))));
  HostParams host;
  host.bw_acc = 1e9;
  host.static_power_w = 1.5;
  const SystemConfig sys(std::move(accs), host);
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  const EnergyBreakdown full = sim.simulate(mapping, plan).energy;
  const EnergyBreakdown agg = inc.result(mapping).energy;
  const EnergyBreakdown fast = inc.energy(mapping);
  EXPECT_GT(full.static_power, 0.0);
  for (const EnergyBreakdown& e : {agg, fast}) {
    EXPECT_DOUBLE_EQ(e.compute, full.compute);
    EXPECT_DOUBLE_EQ(e.link, full.link);
    EXPECT_DOUBLE_EQ(e.dram, full.dram);
    EXPECT_DOUBLE_EQ(e.static_power, full.static_power);
    EXPECT_DOUBLE_EQ(e.total(), full.total());
  }
}

TEST(Incremental, JournalRollbackRestoresScheduleExactly) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);
  const double latency_before = inc.latency();

  // Probe a move under all three journals, then roll everything back.
  LayerId victim{};
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::FullyConnected) victim = id;
  ASSERT_TRUE(victim.valid());
  const AccId src = mapping.acc_of(victim);
  const AccId dst = src == AccId{1} ? AccId{2} : AccId{1};

  mapping.begin_journal();
  plan.begin_journal();
  inc.begin_journal();
  mapping.reassign(victim, dst);
  const std::array<AccId, 2> touched{src, dst};
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  std::vector<LayerId> dirty;
  plan.journal_touched_layers(m, dirty);
  inc.apply_remap(mapping, plan, victim, src, dirty);
  inc.rollback_journal();
  plan.rollback_journal();
  mapping.rollback_journal();

  EXPECT_EQ(mapping.acc_of(victim), src);
  EXPECT_DOUBLE_EQ(inc.latency(), latency_before);
  expect_same_timings(inc, sim, mapping, plan);

  // The rolled-back schedule must still accept further remaps correctly
  // (queues and positions restored, not just timings).
  dirty = move_and_relocalize(sim, mapping, plan, victim, dst);
  inc.apply_remap(mapping, plan, victim, src, dirty);
  expect_same_timings(inc, sim, mapping, plan);
}

// The overlay probe must return exactly the makespan applying the move
// would produce — bit for bit — while leaving the committed schedule, its
// queues, and its timings untouched (no journal involved at all).
TEST(Incremental, ProbeRemapMatchesApplyAndLeavesStateUntouched) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);
  const double latency_before = inc.latency();

  LayerId victim{};
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::FullyConnected) victim = id;
  ASSERT_TRUE(victim.valid());
  const AccId src = mapping.acc_of(victim);
  const AccId dst = src == AccId{1} ? AccId{2} : AccId{1};
  const std::array<AccId, 2> touched{src, dst};

  // Probe under the mapping/plan journals only — the schedule needs none.
  mapping.begin_journal();
  plan.begin_journal();
  mapping.reassign(victim, dst);
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  std::vector<LayerId> dirty;
  plan.journal_touched_layers(m, dirty);
  const double probed = inc.probe_remap(mapping, plan, victim, src, dirty);
  const double probed_energy = inc.probe_energy(mapping).total();
  EXPECT_DOUBLE_EQ(probed, sim.simulate(mapping, plan).latency);

  // Committed schedule untouched by the probe.
  EXPECT_DOUBLE_EQ(inc.latency(), latency_before);
  plan.rollback_journal();
  mapping.rollback_journal();
  expect_same_timings(inc, sim, mapping, plan);

  // Apply for real: the probed numbers were exact.
  dirty = move_and_relocalize(sim, mapping, plan, victim, dst);
  inc.apply_remap(mapping, plan, victim, src, dirty);
  EXPECT_DOUBLE_EQ(inc.latency(), probed);
  EXPECT_DOUBLE_EQ(inc.energy(mapping).total(), probed_energy);
  expect_same_timings(inc, sim, mapping, plan);
}

// Probes every single move of `mapping` with the critical-chain cut, on
// `inc` and on a schedule built from scratch for the same state. A maintained
// chain equals the fresh one, so both return the same value after the same
// visits.
void expect_cut_matches_fresh(IncrementalSchedule& inc, const Simulator& sim,
                              Mapping& mapping, LocalityPlan& plan) {
  const ModelGraph& model = sim.model();
  IncrementalSchedule fresh(sim);
  fresh.reset(mapping, plan);
  for (const LayerId node : model.all_layers()) {
    if (model.layer(node).kind == LayerKind::Input) continue;
    const AccId src = mapping.acc_of(node);
    for (const AccId dst : sim.sys().supporting(model.layer(node).kind)) {
      if (dst == src) continue;
      mapping.begin_journal();
      plan.begin_journal();
      mapping.reassign(node, dst);
      const std::array<AccId, 2> touched{src, dst};
      optimize_weight_locality(sim, mapping, plan, {}, touched);
      optimize_activation_fusion(sim, mapping, plan, {}, touched);
      std::vector<LayerId> dirty;
      plan.journal_touched_layers(model, dirty);
      const std::uint64_t a0 = inc.retime_count();
      const std::uint64_t b0 = fresh.retime_count();
      const double a =
          inc.probe_remap(mapping, plan, node, src, dirty, /*cut=*/true);
      const double b =
          fresh.probe_remap(mapping, plan, node, src, dirty, /*cut=*/true);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
                std::bit_cast<std::uint64_t>(b))
          << "layer " << node.value << " to acc " << dst.value;
      EXPECT_EQ(inc.retime_count() - a0, fresh.retime_count() - b0)
          << "layer " << node.value << " to acc " << dst.value;
      plan.rollback_journal();
      mapping.rollback_journal();
    }
  }
}

// The cut reads one critical chain of the committed schedule, so every
// committed change must refresh it: reset, apply_remap, refresh_components
// and rollback_journal.
TEST(Incremental, CutChainFollowsEveryCommittedChange) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed + 7000);
    const ModelGraph m = testing::make_random_model(rng);
    const SystemConfig sys = testing::make_random_system(rng);
    const Simulator sim(m, sys);
    Mapping mapping = computation_prioritized_mapping(sim);
    LocalityPlan plan(m);
    plan.ensure_acc_count(sys.accelerator_count());
    optimize_weight_locality(sim, mapping, plan);
    optimize_activation_fusion(sim, mapping, plan);

    IncrementalSchedule inc(sim);
    inc.reset(mapping, plan);
    Mapping mapping_start = mapping;
    LocalityPlan plan_start = plan;
    const std::vector<LayerId> layers = m.all_layers();
    for (int step = 0; step < 6; ++step) {
      const LayerId node = layers[rng.index(layers.size())];
      if (m.layer(node).kind == LayerKind::Input) continue;
      const auto cands = sys.supporting(m.layer(node).kind);
      const AccId dst = cands[rng.index(cands.size())];
      const AccId src = mapping.acc_of(node);
      if (dst == src) continue;

      // Apply a move under the schedule journal; the probes in between
      // build the chain of the moved state, which the rollback must drop.
      const Mapping mapping_before = mapping;
      const LocalityPlan plan_before = plan;
      inc.begin_journal();
      const std::vector<LayerId> dirty =
          move_and_relocalize(sim, mapping, plan, node, dst);
      inc.apply_remap(mapping, plan, node, src, dirty);
      expect_cut_matches_fresh(inc, sim, mapping, plan);
      if (rng.chance(0.5)) {
        inc.rollback_journal();
        mapping = mapping_before;
        plan = plan_before;
      } else {
        inc.commit_journal();
      }
      expect_cut_matches_fresh(inc, sim, mapping, plan);

      // An out-of-band pin toggle goes through refresh_components.
      const LayerId pin = layers[rng.index(layers.size())];
      if (m.layer(pin).kind == LayerKind::Input || m.weight_bytes(pin) == 0)
        continue;
      plan.set_pinned(pin, !plan.pinned(pin));
      const std::array<LayerId, 1> toggled{pin};
      inc.refresh_components(mapping, plan, toggled);
      expect_cut_matches_fresh(inc, sim, mapping, plan);
    }

    // Rebuilding the schedule for another state drops the chain as well.
    inc.reset(mapping_start, plan_start);
    expect_cut_matches_fresh(inc, sim, mapping_start, plan_start);
  }
}

// Property: a random sequence of remaps tracked incrementally stays
// bit-identical to full re-simulation.
class IncrementalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalProperty, RandomRemapSequenceStaysConsistent) {
  Rng rng(GetParam());
  const ModelGraph m = testing::make_random_model(rng);
  const SystemConfig sys = testing::make_random_system(rng);
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  const std::vector<LayerId> layers = m.all_layers();
  for (int step = 0; step < 10; ++step) {
    // Pick a random movable layer and a random supporting destination.
    const LayerId node = layers[rng.index(layers.size())];
    if (m.layer(node).kind == LayerKind::Input) continue;
    const auto cands = sys.supporting(m.layer(node).kind);
    const AccId dst = cands[rng.index(cands.size())];
    const AccId src = mapping.acc_of(node);
    if (dst == src) continue;

    const std::vector<LayerId> dirty =
        move_and_relocalize(sim, mapping, plan, node, dst);
    inc.apply_remap(mapping, plan, node, src, dirty);

    const ScheduleResult full = sim.simulate(mapping, plan);
    ASSERT_DOUBLE_EQ(inc.latency(), full.latency) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace h2h
