// Cross-module property sweeps: the full H2H pipeline on randomized models
// and randomized heterogeneous systems must uphold the algorithm's
// invariants for every seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/remap_delta.h"
#include "system/incremental.h"
#include "test_helpers.h"

namespace h2h {
namespace {

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

constexpr std::uint64_t kLastSeed = 25;

struct CutTally {
  std::uint64_t cut = 0;            // probes the cut stopped
  std::uint64_t shorter_uncut = 0;  // uncut probes below the committed makespan
};

// Moves the step-4 loop decides without a probe, and the locality
// predicate's answers (see the final loop of
// DeltaProbesMatchFullPassesAndMemberLists).
struct UnprobedTally {
  std::uint64_t decided = 0;    // off the chain and local
  std::uint64_t local = 0;      // move_is_local answered true
  std::uint64_t not_local = 0;  // ... and false
};

// Probes the move that `mapping`, `plan` and `dirty` hold, first with the
// full sweep and then with the critical-chain cut, and returns the full
// makespan. The cut returns +infinity only when that makespan is not below
// the committed one, and then after fewer visits and with the partial
// overlay closed to probe_energy; otherwise it returns the same value bit
// for bit after the same visits.
double probe_with_and_without_cut(IncrementalSchedule& inc,
                                  const Mapping& mapping,
                                  const LocalityPlan& plan, LayerId node,
                                  AccId src, std::span<const LayerId> dirty,
                                  CutTally& tally) {
  const double committed = inc.latency();
  const std::uint64_t v0 = inc.retime_count();
  const double full = inc.probe_remap(mapping, plan, node, src, dirty);
  const std::uint64_t v1 = inc.retime_count();
  const double cut =
      inc.probe_remap(mapping, plan, node, src, dirty, /*cut=*/true);
  const std::uint64_t v2 = inc.retime_count();
  if (std::isinf(cut)) {
    EXPECT_GE(full, committed);
    EXPECT_LT(v2 - v1, v1 - v0);
    EXPECT_THROW((void)inc.probe_energy(mapping), ContractViolation);
    ++tally.cut;
  } else {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cut),
              std::bit_cast<std::uint64_t>(full));
    EXPECT_EQ(v2 - v1, v1 - v0);
    if (cut < committed) ++tally.shorter_uncut;
  }
  EXPECT_EQ(inc.latency(), committed);
  return full;
}

TEST_P(PipelineProperty, InvariantsHoldOnRandomInstances) {
  Rng rng(GetParam());
  const ModelGraph model = testing::make_random_model(rng);
  const SystemConfig sys = testing::make_random_system(rng);
  const PlanResponse r = plan_once(model, sys);

  // 1. All four steps ran, latencies positive and monotone from step 2 on.
  ASSERT_EQ(r.steps.size(), 4u);
  for (const StepSnapshot& s : r.steps) {
    EXPECT_GT(s.result.latency, 0.0);
    EXPECT_GT(s.result.energy.total(), 0.0);
  }
  EXPECT_LE(r.steps[1].result.latency, r.steps[0].result.latency);
  EXPECT_LE(r.steps[2].result.latency, r.steps[1].result.latency);
  EXPECT_LE(r.steps[3].result.latency, r.steps[2].result.latency);

  // 2. Final mapping is complete and kind-valid.
  EXPECT_NO_THROW(r.mapping.validate(model, sys));

  // 3. Pins and fused buffers respect every accelerator's DRAM capacity.
  for (const AccId acc : sys.all_accelerators()) {
    Bytes pinned = 0;
    for (const LayerId id : r.mapping.layers_on(acc))
      if (r.plan.pinned(id)) pinned += model.weight_bytes(id);
    EXPECT_LE(pinned, sys.spec(acc).dram_capacity) << sys.spec(acc).name;
    EXPECT_LE(r.plan.used_dram(acc), sys.spec(acc).dram_capacity);
  }

  // 4. Fused edges connect co-located layers only.
  for (const LayerId id : model.all_layers()) {
    const auto preds = model.graph().preds(id);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (!r.plan.fused_in(id, i)) continue;
      EXPECT_EQ(r.mapping.acc_of(preds[i]), r.mapping.acc_of(id));
      EXPECT_FALSE(r.mapping.acc_of(id).is_host());
    }
  }

  // 5. Schedule sanity: every layer starts after its predecessors finish,
  //    and accelerator queues do not overlap.
  const ScheduleResult& final = r.final_result();
  for (const LayerId id : model.all_layers()) {
    for (const LayerId p : model.graph().preds(id)) {
      EXPECT_GE(final.timings[id.value].start,
                final.timings[p.value].finish - 1e-12);
    }
  }
  for (const AccId acc : sys.all_accelerators()) {
    const auto queue = r.mapping.layers_on(acc);
    for (std::size_t i = 1; i < queue.size(); ++i) {
      EXPECT_GE(final.timings[queue[i].value].start,
                final.timings[queue[i - 1].value].finish - 1e-12);
    }
  }

  // 6. Makespan equals the max finish time.
  double max_finish = 0;
  for (const LayerTiming& t : final.timings)
    max_finish = std::max(max_finish, t.finish);
  EXPECT_DOUBLE_EQ(final.latency, max_finish);
}

TEST_P(PipelineProperty, EnergyDecomposesAndTracksTraffic) {
  Rng rng(GetParam() + 1000);
  const ModelGraph model = testing::make_random_model(rng);
  const SystemConfig sys = testing::make_random_system(rng);
  const PlanResponse r = plan_once(model, sys);

  const EnergyBreakdown& base = r.baseline_result().energy;
  const EnergyBreakdown& fin = r.final_result().energy;
  // Steps 2-3 only localize traffic, so up to the end of step 3 host bytes
  // cannot grow. (Step 4 optimizes latency and may trade traffic around.)
  EXPECT_LE(r.steps[2].result.host_bytes, r.steps[0].result.host_bytes);
  EXPECT_GT(fin.compute, 0.0);
  EXPECT_DOUBLE_EQ(fin.total(),
                   fin.compute + fin.link + fin.dram + fin.static_power);
  EXPECT_GE(base.total(), 0.0);
}

// Property for the journaled search core: an arbitrary interleaving of
// remap / pin / fuse probes and undos, tracked through the apply/undo
// journals, must agree with a from-scratch Simulator::simulate at every
// step — and a rollback must restore the exact pre-probe state.
TEST_P(PipelineProperty, JournaledProbesAgreeWithFullSimulationAtEveryStep) {
  Rng rng(GetParam() + 2000);
  const ModelGraph model = testing::make_random_model(rng);
  const SystemConfig sys = testing::make_random_system(rng);
  const Simulator sim(model, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(model);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  const std::vector<LayerId> layers = model.all_layers();
  for (int step = 0; step < 25; ++step) {
    const double latency_before = inc.latency();
    const std::size_t pins_before = plan.pinned_count();
    const std::size_t fused_before = plan.fused_edge_count();

    mapping.begin_journal();
    plan.begin_journal();
    inc.begin_journal();

    bool probed = false;
    switch (rng.index(3)) {
      case 0: {  // remap probe with steps 2-3 re-run on the touched pair
        const LayerId node = layers[rng.index(layers.size())];
        if (model.layer(node).kind == LayerKind::Input) break;
        const auto cands = sys.supporting(model.layer(node).kind);
        const AccId dst = cands[rng.index(cands.size())];
        const AccId src = mapping.acc_of(node);
        if (dst == src) break;
        mapping.reassign(node, dst);
        const std::array<AccId, 2> touched{src, dst};
        optimize_weight_locality(sim, mapping, plan, {}, touched);
        optimize_activation_fusion(sim, mapping, plan, {}, touched);
        std::vector<LayerId> dirty;
        plan.journal_touched_layers(model, dirty);
        inc.apply_remap(mapping, plan, node, src, dirty);
        probed = true;
        break;
      }
      case 1: {  // pin toggle
        const LayerId node = layers[rng.index(layers.size())];
        if (model.layer(node).kind == LayerKind::Input ||
            model.weight_bytes(node) == 0)
          break;
        plan.set_pinned(node, !plan.pinned(node));
        const std::array<LayerId, 1> dirty{node};
        inc.refresh_components(mapping, plan, dirty);
        probed = true;
        break;
      }
      default: {  // fuse toggle (consumer in-transfer + producer host write)
        const LayerId node = layers[rng.index(layers.size())];
        const auto preds = model.graph().preds(node);
        if (preds.empty() || model.layer(node).kind == LayerKind::Input) break;
        const std::size_t slot = rng.index(preds.size());
        // Only toggle co-located edges on: cross-accelerator fusion is
        // not a state the passes produce.
        const bool want = !plan.fused_in(node, slot);
        if (want && mapping.acc_of(preds[slot]) != mapping.acc_of(node)) break;
        plan.set_fused_in(node, slot, want);
        const std::array<LayerId, 2> dirty{node, preds[slot]};
        inc.refresh_components(mapping, plan, dirty);
        probed = true;
        break;
      }
    }

    // Journaled state and a from-scratch simulation agree after the probe.
    ASSERT_DOUBLE_EQ(inc.latency(), sim.simulate(mapping, plan).latency)
        << "step " << step;

    if (probed && rng.index(2) == 0) {
      inc.rollback_journal();
      plan.rollback_journal();
      mapping.rollback_journal();
      // Rollback restored the exact pre-probe state.
      ASSERT_DOUBLE_EQ(inc.latency(), latency_before) << "step " << step;
      ASSERT_EQ(plan.pinned_count(), pins_before) << "step " << step;
      ASSERT_EQ(plan.fused_edge_count(), fused_before) << "step " << step;
      ASSERT_DOUBLE_EQ(sim.simulate(mapping, plan).latency, latency_before)
          << "step " << step;
    } else {
      inc.commit_journal();
      plan.commit_journal();
      mapping.commit_journal();
    }
  }

  // Whatever mix of commits and rollbacks happened, the tracked schedule
  // still matches a full re-simulation bit for bit.
  const ScheduleResult full = sim.simulate(mapping, plan);
  const ScheduleResult agg = inc.result(mapping);
  EXPECT_DOUBLE_EQ(agg.latency, full.latency);
  EXPECT_DOUBLE_EQ(agg.energy.total(), full.energy.total());
  EXPECT_DOUBLE_EQ(agg.host_time, full.host_time);
}

// Tentpole property (delta-evaluated remap probes): an arbitrary
// interleaving of delta-evaluated remap probes — per-acc member lists,
// delta steps-2/3, overlay schedule probe — with rollbacks, commits, and
// out-of-band pin/fuse toggles must stay bit-identical to the from-scratch
// full passes, and the delta aggregates must always equal a fresh
// re-derivation from the live state. Every schedule probe is repeated with
// the critical-chain cut, which may only turn a makespan that is not below
// the committed one into +infinity.
TEST_P(PipelineProperty, DeltaProbesMatchFullPassesAndMemberLists) {
  Rng rng(GetParam() + 3000);
  const ModelGraph model = testing::make_random_model(rng);
  const SystemConfig sys = testing::make_random_system(rng);
  const Simulator sim(model, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(model);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);
  RemapDeltaState delta(sim, {}, {});
  delta.init(mapping, plan);

  const std::vector<LayerId> layers = model.all_layers();

  // Per-acc member lists must always equal a brute-force scan.
  const auto check_members = [&] {
    for (const AccId acc : sys.all_accelerators()) {
      std::vector<LayerId> expected;
      for (const LayerId id : layers)
        if (mapping.is_assigned(id) && mapping.acc_of(id) == acc)
          expected.push_back(id);
      std::sort(expected.begin(), expected.end(),
                [&mapping](LayerId l, LayerId r) {
                  return mapping.seq_of(l) < mapping.seq_of(r);
                });
      const auto got = mapping.members(acc);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                             expected.end()))
          << "acc " << acc.value;
    }
  };

  // The maintained aggregates must equal a from-scratch re-derivation.
  const auto check_aggregates = [&] {
    RemapDeltaState fresh(sim, {}, {});
    fresh.init(mapping, plan);
    for (const AccId acc : sys.all_accelerators())
      ASSERT_TRUE(delta.aggregates(acc) == fresh.aggregates(acc))
          << "acc " << acc.value;
  };

  std::vector<LayerId> dirty;
  CutTally tally;
  for (int step = 0; step < 25; ++step) {
    switch (rng.index(4)) {
      case 0:
      case 1: {  // delta-evaluated remap probe vs full-pass reference
        const LayerId node = layers[rng.index(layers.size())];
        if (model.layer(node).kind == LayerKind::Input) break;
        const auto cands = sys.supporting(model.layer(node).kind);
        const AccId dst = cands[rng.index(cands.size())];
        const AccId src = mapping.acc_of(node);
        if (dst == src) break;

        // Reference: the full touched-pair re-run on a copied state.
        Mapping ref_mapping = mapping;
        LocalityPlan ref_plan = plan;
        ref_mapping.reassign(node, dst);
        const std::array<AccId, 2> touched{src, dst};
        optimize_weight_locality(sim, ref_mapping, ref_plan, {}, touched);
        optimize_activation_fusion(sim, ref_mapping, ref_plan, {}, touched);

        // Delta path on the live state, journaled.
        mapping.begin_journal();
        plan.begin_journal();
        delta.begin_probe(src, dst);
        mapping.reassign(node, dst);
        delta.apply_move(mapping, plan, node, src, dst);

        // Bit-identical plan state vs the reference.
        for (const LayerId id : layers) {
          ASSERT_EQ(plan.pinned(id), ref_plan.pinned(id))
              << "step " << step << " layer " << id.value;
          const auto preds = model.graph().preds(id);
          for (std::size_t i = 0; i < preds.size(); ++i)
            ASSERT_EQ(plan.fused_in(id, i), ref_plan.fused_in(id, i))
                << "step " << step << " layer " << id.value << " slot " << i;
        }
        for (const AccId acc : sys.all_accelerators())
          ASSERT_EQ(plan.used_dram(acc), ref_plan.used_dram(acc))
              << "step " << step << " acc " << acc.value;
        check_members();

        // The overlay probe returns the applied makespan bit for bit and
        // leaves the committed schedule untouched.
        const double latency_before = inc.latency();
        dirty.clear();
        plan.journal_touched_layers(model, dirty);
        const double probed = probe_with_and_without_cut(
            inc, mapping, plan, node, src, dirty, tally);
        ASSERT_DOUBLE_EQ(probed, sim.simulate(mapping, plan).latency)
            << "step " << step;
        ASSERT_DOUBLE_EQ(inc.latency(), latency_before) << "step " << step;

        if (rng.index(2) == 0) {  // keep: apply the probed move for real
          inc.apply_remap(mapping, plan, node, src, dirty);
          ASSERT_DOUBLE_EQ(inc.latency(), probed) << "step " << step;
          delta.commit_probe();
          plan.commit_journal();
          mapping.commit_journal();
        } else {  // reject: roll everything back
          delta.rollback_probe();
          plan.rollback_journal();
          mapping.rollback_journal();
          ASSERT_DOUBLE_EQ(inc.latency(), latency_before) << "step " << step;
          check_members();
        }
        break;
      }
      case 2: {  // out-of-band pin toggle: delta state must be re-derived
        const LayerId node = layers[rng.index(layers.size())];
        if (model.layer(node).kind == LayerKind::Input ||
            model.weight_bytes(node) == 0)
          break;
        plan.set_pinned(node, !plan.pinned(node));
        const std::array<LayerId, 1> d{node};
        inc.refresh_components(mapping, plan, d);
        delta.init(mapping, plan);
        break;
      }
      default: {  // out-of-band fuse toggle (co-located edges only)
        const LayerId node = layers[rng.index(layers.size())];
        const auto preds = model.graph().preds(node);
        if (preds.empty() || model.layer(node).kind == LayerKind::Input) break;
        const std::size_t slot = rng.index(preds.size());
        const bool want = !plan.fused_in(node, slot);
        if (want && mapping.acc_of(preds[slot]) != mapping.acc_of(node)) break;
        plan.set_fused_in(node, slot, want);
        const std::array<LayerId, 2> d{node, preds[slot]};
        inc.refresh_components(mapping, plan, d);
        delta.init(mapping, plan);
        break;
      }
    }
    check_aggregates();
  }

  // Whatever mix happened, the tracked schedule still matches a full
  // re-simulation bit for bit.
  ASSERT_DOUBLE_EQ(inc.latency(), sim.simulate(mapping, plan).latency);

  // Every single move from the final state, probed with and without the cut.
  // A move the step-4 loop decides without a probe (neither the node nor a
  // graph neighbour on the committed critical chain, and move_is_local) must
  // flip flags only on the node and its neighbours, take no full step-2/3
  // pass, and not shorten the makespan.
  UnprobedTally unprobed;
  for (const LayerId node : layers) {
    if (model.layer(node).kind == LayerKind::Input) continue;
    const AccId src = mapping.acc_of(node);
    const bool off_chain = !inc.near_critical_chain(node);
    const auto preds = model.graph().preds(node);
    const auto succs = model.graph().succs(node);
    for (const AccId dst : sys.supporting(model.layer(node).kind)) {
      if (dst == src) continue;
      const bool local = delta.move_is_local(node, src, dst);
      ++(local ? unprobed.local : unprobed.not_local);
      const RemapDeltaStats before = delta.stats();
      mapping.begin_journal();
      plan.begin_journal();
      delta.begin_probe(src, dst);
      mapping.reassign(node, dst);
      delta.apply_move(mapping, plan, node, src, dst);
      dirty.clear();
      plan.journal_touched_layers(model, dirty);
      if (local) {
        EXPECT_EQ(delta.stats().full_weight, before.full_weight);
        EXPECT_EQ(delta.stats().full_fusion, before.full_fusion);
        for (const LayerId id : dirty)
          EXPECT_TRUE(id == node || std::ranges::count(preds, id) > 0 ||
                      std::ranges::count(succs, id) > 0)
              << "layer " << id.value << " moving " << node.value;
      }
      (void)probe_with_and_without_cut(inc, mapping, plan, node, src, dirty,
                                       tally);
      if (off_chain && local) {
        ++unprobed.decided;
        EXPECT_GE(sim.simulate(mapping, plan).latency, inc.latency())
            << "moving " << node.value << " to " << dst.value;
      }
      delta.rollback_probe();
      plan.rollback_journal();
      mapping.rollback_journal();
    }
  }

  // Neither branch of the cut check may go untested. Every seed sees an
  // uncut probe that shortens the makespan. A cut needs a chain layer beyond
  // every refreshed layer, which the smallest random models never offer, so
  // cuts are counted over the seeds this process ran (ctest runs each seed
  // alone) and checked once, by the last seed. The moves decided without a
  // probe and both answers of move_is_local are counted the same way.
  EXPECT_GT(tally.shorter_uncut, 0u);
  static std::uint64_t cut_probes_all_seeds = 0;
  static UnprobedTally unprobed_all_seeds;
  cut_probes_all_seeds += tally.cut;
  unprobed_all_seeds.decided += unprobed.decided;
  unprobed_all_seeds.local += unprobed.local;
  unprobed_all_seeds.not_local += unprobed.not_local;
  if (GetParam() == kLastSeed) {
    EXPECT_GT(cut_probes_all_seeds, 0u);
    EXPECT_GT(unprobed_all_seeds.decided, 0u);
    EXPECT_GT(unprobed_all_seeds.local, 0u);
    EXPECT_GT(unprobed_all_seeds.not_local, 0u);
  }
}

// Both search steps against their reference implementations on random
// models and random heterogeneous systems: 8 step-1 and 4 step-4 instances
// per seed (200 and 100 over the suite's 25 seeds).
TEST_P(PipelineProperty, Step1MatchesBruteForceReference) {
  for (std::uint64_t k = 0; k < 8; ++k) {
    Rng rng(GetParam() * 8 + k + 4000);
    const ModelGraph model = testing::make_random_model(rng);
    const SystemConfig sys = testing::make_random_system(rng);
    const Simulator sim(model, sys);
    EXPECT_EQ(testing::mapping_diff(model, testing::reference_step1(sim),
                                    computation_prioritized_mapping(sim)),
              "")
        << "instance " << k;
  }
}

TEST_P(PipelineProperty, RemapMatchesReferenceSearch) {
  for (std::uint64_t k = 0; k < 4; ++k) {
    Rng rng(GetParam() * 4 + k + 6000);
    const ModelGraph model = testing::make_random_model(rng);
    const SystemConfig sys = testing::make_random_system(rng);
    PlanOptions steps123;
    steps123.run_remapping = false;
    const PlanResponse seed = plan_once(model, sys, steps123);
    const Simulator sim(model, sys);
    EXPECT_EQ(
        testing::compare_remap_with_reference(sim, seed.mapping, seed.plan)
            .diff,
        "")
        << "instance " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<std::uint64_t>(1, kLastSeed + 1));

}  // namespace
}  // namespace h2h
