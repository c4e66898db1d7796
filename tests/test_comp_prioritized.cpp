#include <gtest/gtest.h>

#include "core/comp_prioritized.h"
#include "test_helpers.h"
#include "util/error.h"

namespace h2h {
namespace {

using testing::make_chain_model;
using testing::make_mini_hetero_system;
using testing::make_mini_mmmt_model;

TEST(CompPrioritized, ProducesCompleteValidMapping) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  EXPECT_TRUE(mapping.complete());
  EXPECT_NO_THROW(mapping.validate(m, sys));
}

TEST(CompPrioritized, SequenceIsTopological) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  for (const LayerId id : m.all_layers())
    for (const LayerId s : m.graph().succs(id))
      EXPECT_LT(mapping.seq_of(id), mapping.seq_of(s));
}

TEST(CompPrioritized, RespectsKindSupport) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  for (const LayerId id : m.all_layers()) {
    const Layer& l = m.layer(id);
    if (l.kind == LayerKind::Input) continue;
    EXPECT_TRUE(sys.accelerator(mapping.acc_of(id)).supports(l.kind))
        << l.name;
  }
  // In the mini system, LSTMs can only live on the LSTM specialist.
  for (const LayerId id : m.all_layers()) {
    if (m.layer(id).kind == LayerKind::Lstm) {
      EXPECT_EQ(mapping.acc_of(id), AccId{2});
    }
  }
}

TEST(CompPrioritized, DeterministicAcrossRuns) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping a = computation_prioritized_mapping(sim);
  const Mapping b = computation_prioritized_mapping(sim);
  for (const LayerId id : m.all_layers()) {
    EXPECT_EQ(a.acc_of(id), b.acc_of(id));
    EXPECT_EQ(a.seq_of(id), b.seq_of(id));
  }
}

TEST(CompPrioritized, PrefersFasterAcceleratorForConv) {
  // A single conv layer must land on the conv champion (acc 0: 1000 MAC/c),
  // not on the generic engine (200 MAC/c).
  const ModelGraph m = make_chain_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  EXPECT_EQ(mapping.acc_of(LayerId{1}), AccId{0});
  EXPECT_EQ(mapping.acc_of(LayerId{2}), AccId{0});
}

TEST(CompPrioritized, ChunkingUnderTinyCandidateBudget) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  CompPrioritizedOptions opts;
  opts.max_candidates = 2;  // forces single-node chunks
  const Mapping mapping = computation_prioritized_mapping(sim, opts);
  EXPECT_TRUE(mapping.complete());
  EXPECT_NO_THROW(mapping.validate(m, sys));
}

TEST(CompPrioritized, ExhaustiveBeatsOrMatchesGreedyChunks) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const LocalityPlan zero(m);

  CompPrioritizedOptions greedy;
  greedy.max_candidates = 1;
  const double lat_greedy =
      sim.simulate(computation_prioritized_mapping(sim, greedy), zero).latency;
  const double lat_full =
      sim.simulate(computation_prioritized_mapping(sim), zero).latency;
  EXPECT_LE(lat_full, lat_greedy + 1e-12);
}

TEST(CompPrioritized, PreferredHookPinsPlacement) {
  const ModelGraph m = make_chain_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  CompPrioritizedOptions opts;
  // Force the convs onto the slow generic engine.
  opts.preferred = [&m](LayerId id) -> std::optional<AccId> {
    if (m.layer(id).kind == LayerKind::Conv) return AccId{1};
    return std::nullopt;
  };
  const Mapping mapping = computation_prioritized_mapping(sim, opts);
  EXPECT_EQ(mapping.acc_of(LayerId{1}), AccId{1});
  EXPECT_EQ(mapping.acc_of(LayerId{2}), AccId{1});
}

TEST(CompPrioritized, PreferredHookIgnoredWhenUnsupported) {
  const ModelGraph m = make_chain_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  CompPrioritizedOptions opts;
  // Conv-only accelerator cannot take the FC; preference must be dropped.
  opts.preferred = [](LayerId) -> std::optional<AccId> { return AccId{0}; };
  const Mapping mapping = computation_prioritized_mapping(sim, opts);
  EXPECT_NO_THROW(mapping.validate(m, sys));
  EXPECT_NE(mapping.acc_of(LayerId{3}), AccId{0});
}

TEST(CompPrioritized, ThrowsWhenNoAcceleratorSupportsKind) {
  ModelBuilder b("lstm-only");
  const LayerId in = b.input_seq("in", 8, 4);
  (void)b.lstm("l", in, 8, 1);
  const ModelGraph m = std::move(b).build();

  std::vector<AcceleratorPtr> accs;
  AcceleratorSpec conv_only = testing::simple_spec("C", gib(1));
  conv_only.kinds = KindSupport{true, false, false};
  accs.push_back(make_analytical(std::move(conv_only)));
  const SystemConfig sys(std::move(accs), HostParams{1e9, 0.0});
  const Simulator sim(m, sys);
  EXPECT_THROW((void)computation_prioritized_mapping(sim), ConfigError);
}

TEST(CompPrioritized, TiesKeepTheFirstEnumeratedAssignment) {
  // Two identical branch convs (b, c) on two identical accelerators after a
  // shared predecessor a: assignments (b->1, c->0) and (b->0, c->1) tie
  // exactly on (makespan, finish-sum). The documented rule keeps the FIRST
  // enumerated assignment — enumeration varies b's candidate fastest, so
  // (b->1, c->0) is reached before (b->0, c->1) and must win. (A plain
  // lexicographic choice-index tie-break would pick b->0 instead; this test
  // pins the actual colexicographic rule.)
  const ModelGraph m = testing::make_diamond_model();
  const SystemConfig sys = testing::make_uniform_system(2);
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  // Layer ids: in=0, a=1, b=2, c=3, d=4, e=5.
  EXPECT_EQ(mapping.acc_of(LayerId{1}), AccId{0});  // singleton wave: acc 0
  EXPECT_EQ(mapping.acc_of(LayerId{2}), AccId{1});
  EXPECT_EQ(mapping.acc_of(LayerId{3}), AccId{0});
}

TEST(CompPrioritized, BalancesIndependentBranchesAcrossAccelerators) {
  // Two identical independent conv branches and two identical conv-capable
  // accelerators: the delta-latency rule must parallelize them.
  ModelBuilder b("twin");
  const LayerId i1 = b.input("i1", 8, 32, 32);
  const LayerId i2 = b.input("i2", 8, 32, 32);
  const LayerId c1 = b.conv("c1", i1, 32, 3, 1);
  const LayerId c2 = b.conv("c2", i2, 32, 3, 1);
  (void)c1;
  (void)c2;
  const ModelGraph m = std::move(b).build();
  const SystemConfig sys = testing::make_uniform_system(2);
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  EXPECT_NE(mapping.acc_of(c1), mapping.acc_of(c2));
}

// A wave of identical parallel convolutions on identical accelerators: every
// permutation of an assignment reaches the same per-accelerator tail vector,
// so (makespan, finish-sum) ties abound and the colex tie-break decides.
[[nodiscard]] ModelGraph make_symmetric_wave_model(std::uint32_t width) {
  ModelBuilder b("sym-wave");
  const LayerId in = b.input("in", 8, 32, 32);
  std::vector<LayerId> branches;
  for (std::uint32_t i = 0; i < width; ++i)
    branches.push_back(b.conv(strformat("c%u", i), in, 32, 3, 1));
  (void)b.concat("cat", branches);
  return std::move(b).build();
}

// The pruned DFS must land on exactly the brute-force enumeration's mapping
// — placements and sequence — on every zoo model at every paper bandwidth.
TEST(CompPrioritized, MatchesBruteForceReferenceOnZoo) {
  for (const ZooInfo& info : zoo_catalog()) {
    const ModelGraph m = make_model(info.id);
    for (const BandwidthSetting bw : all_bandwidth_settings()) {
      const SystemConfig sys = SystemConfig::standard(bw);
      const Simulator sim(m, sys);
      EXPECT_EQ(testing::mapping_diff(m, testing::reference_step1(sim),
                                      computation_prioritized_mapping(sim)),
                "")
          << info.key << " @ " << to_string(bw);
    }
  }
}

// Permutation-symmetric waves maximize exact ties, so they exercise the
// colex tie-break on every chunk; small candidate budgets add the chunked
// (greedy-in-sequence) regime on both sides.
TEST(CompPrioritized, MatchesBruteForceReferenceOnSymmetricWaves) {
  for (std::uint32_t width = 2; width <= 6; ++width) {
    const ModelGraph m = make_symmetric_wave_model(width);
    for (std::size_t accs = 2; accs <= 4; ++accs) {
      const SystemConfig sys = testing::make_uniform_system(accs);
      const Simulator sim(m, sys);
      for (const std::uint64_t budget :
           {std::uint64_t{2}, std::uint64_t{16},
            CompPrioritizedOptions{}.max_candidates}) {
        CompPrioritizedOptions opt;
        opt.max_candidates = budget;
        const Mapping want = testing::reference_step1(sim, budget);
        EXPECT_EQ(testing::mapping_diff(
                      m, want, computation_prioritized_mapping(sim, opt)),
                  "")
            << "width " << width << " on " << accs << " accs, budget "
            << budget;
      }
    }
  }
}

// Stats sanity on a mini model: wave/chunk accounting is exact, evaluation
// counts are positive, and the retired dominance counter stays zero.
TEST(CompPrioritized, StatsAccounting) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);

  CompPrioritizedOptions opt;
  CompPrioritizedStats st;
  opt.stats = &st;
  (void)computation_prioritized_mapping(sim, opt);
  EXPECT_GT(st.waves, 0u);
  EXPECT_GE(st.chunks, st.waves);
  EXPECT_GT(st.evaluated, 0u);
  EXPECT_EQ(st.dominance_pruned, 0u);
}

}  // namespace
}  // namespace h2h
