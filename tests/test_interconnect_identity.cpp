// Bit-identity contracts of the link-topology refactor:
//
//  - a uniform Interconnect is hex-identical to the scalar BW_acc code it
//    replaced (pinned against pre-refactor constants across the zoo),
//  - any topology whose realizable links all run at one speed with zero
//    latency degrades to the same bits (property-tested on random models),
//  - delta-evaluated remap probes stay bit-identical to full re-evaluation
//    under non-uniform links (both strategies run the same pass code).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "h2h.h"
#include "model/synthetic.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/units.h"

namespace h2h {
namespace {

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

struct PinnedCase {
  ZooModel model;
  double bw_gb;  // GB/s
  std::uint64_t latency_bits;
  std::uint64_t energy_bits;
};

// Final latency/energy of plan_once on the standard 12-accelerator system,
// captured from the pre-topology scalar code (0.125 = Low-, 0.5 = Mid).
// These pins are the refactor's ground truth: a uniform Interconnect must
// reproduce every bit.
constexpr PinnedCase kPinned[] = {
    {ZooModel::VLocNet, 0.125, 0x3fc4cee9120a53c4ull, 0x3ffa1f92b5f5d3d4ull},
    {ZooModel::VLocNet, 0.5, 0x3fb26deb110b499full, 0x3fee314a0416fb43ull},
    {ZooModel::CasiaSurf, 0.125, 0x3f81b5a5edd5dae9ull, 0x3fb80a8006d98c9aull},
    {ZooModel::CasiaSurf, 0.5, 0x3f76d52748bb5ee6ull, 0x3fb3ab5820640be0ull},
    {ZooModel::Vfs, 0.125, 0x3fb373e25b390125ull, 0x3fe833585183b5e8ull},
    {ZooModel::Vfs, 0.5, 0x3fb2d46e6217ed83ull, 0x3fe7ee5d4bcfa815ull},
    {ZooModel::FaceBag, 0.125, 0x3f7d80d4c8224ce7ull, 0x3fb4a1fa40146e7eull},
    {ZooModel::FaceBag, 0.5, 0x3f736dd70224c4c4ull, 0x3fadaf591068e118ull},
    {ZooModel::CnnLstm, 0.125, 0x3f74e6306949e25full, 0x3fa1bc3602f1a3feull},
    {ZooModel::CnnLstm, 0.5, 0x3f6ae8e8b611f3a0ull, 0x3f9c532b261690a1ull},
    {ZooModel::MoCap, 0.125, 0x3f66cb53c184c63dull, 0x3f9b58ff2377db85ull},
    {ZooModel::MoCap, 0.5, 0x3f64780e05741a84ull, 0x3f96a19a9685174bull},
};

class UniformIdentity : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(UniformIdentity, UniformTopologyReproducesScalarBits) {
  const PinnedCase& c = GetParam();
  const ModelGraph model = make_model(c.model);

  const SystemConfig scalar = SystemConfig::standard(gbps(c.bw_gb));
  const SystemConfig topo =
      SystemConfig::standard(Interconnect::uniform(gbps(c.bw_gb)));

  const PlanResponse r_scalar = plan_once(model, scalar);
  const PlanResponse r_topo = plan_once(model, topo);

  // Scalar path matches the pre-refactor pins...
  EXPECT_EQ(bits(r_scalar.final_result().latency), c.latency_bits);
  EXPECT_EQ(bits(r_scalar.final_result().energy.total()), c.energy_bits);
  // ...and the uniform topology matches the scalar path, bit for bit.
  EXPECT_EQ(bits(r_topo.final_result().latency), c.latency_bits);
  EXPECT_EQ(bits(r_topo.final_result().energy.total()), c.energy_bits);
  ASSERT_EQ(r_scalar.steps.size(), r_topo.steps.size());
  for (std::size_t i = 0; i < r_scalar.steps.size(); ++i) {
    EXPECT_EQ(bits(r_scalar.steps[i].result.latency),
              bits(r_topo.steps[i].result.latency));
    EXPECT_EQ(bits(r_scalar.steps[i].result.energy.total()),
              bits(r_topo.steps[i].result.energy.total()));
  }
  EXPECT_EQ(r_scalar.remap_stats.accepted, r_topo.remap_stats.accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, UniformIdentity, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      std::string name(zoo_info(info.param.model).key);
      for (char& c : name)
        if (c == '-') c = '_';  // gtest names must be identifiers
      return name + (info.param.bw_gb < 0.25 ? "_LowMinus" : "_Mid");
    });

// Degenerate non-uniform shapes — a mixed topology whose overrides all equal
// the default, and a hierarchical fabric whose speeds coincide at zero
// latency — must take the uniform fast path and reproduce the scalar bits on
// arbitrary models.
TEST(DegradeToUniform, RandomModelsStayBitIdentical) {
  Rng rng(20260808);
  for (int trial = 0; trial < 8; ++trial) {
    const ModelGraph model = testing::make_random_model(rng);
    const double bw = gbps(0.0625 * static_cast<double>(
                               rng.uniform_int(2, 20)));
    const SystemConfig scalar = SystemConfig::standard(bw);

    Interconnect mixed = Interconnect::mixed(
        bw, {{static_cast<std::uint32_t>(rng.uniform_int(0, 11)), bw}});
    Interconnect::HierarchicalSpec spec;
    spec.group_size =
        static_cast<std::uint32_t>(rng.uniform_int(1, 12));
    spec.intra_bw = bw;
    spec.uplink_bw = bw;
    spec.host_bw = bw;
    Interconnect hier = Interconnect::hierarchical(spec);

    const PlanResponse want = plan_once(model, scalar);
    for (const SystemConfig& sys :
         {SystemConfig::standard(std::move(mixed)),
          SystemConfig::standard(std::move(hier))}) {
      ASSERT_TRUE(sys.links().uniform_links());
      const PlanResponse got = plan_once(model, sys);
      EXPECT_EQ(bits(want.final_result().latency),
                bits(got.final_result().latency));
      EXPECT_EQ(bits(want.final_result().energy.total()),
                bits(got.final_result().energy.total()));
    }
  }
}

// Non-uniform topologies must actually reach the schedule: giving half the
// accelerators 10x faster links cannot leave the plan's latency untouched.
TEST(NonUniformLinks, TopologyChangesTheSchedule) {
  const ModelGraph model = make_model(ZooModel::CasiaSurf);
  std::vector<Interconnect::Override> fast;
  for (std::uint32_t i = 0; i < 12; i += 2) fast.emplace_back(i, gbps(1.25));
  const SystemConfig mixed = SystemConfig::standard(
      Interconnect::mixed(gbps(0.125), std::move(fast)));
  const SystemConfig slow = SystemConfig::standard(gbps(0.125));

  const double lat_mixed = plan_once(model, mixed).final_result().latency;
  const double lat_slow = plan_once(model, slow).final_result().latency;
  EXPECT_LT(lat_mixed, lat_slow);
}

// The delta-evaluated remap probes and the reference search's full
// re-evaluation run the same pass code over the same states, so their
// results agree bit-for-bit — including under non-uniform links, where a
// move also re-prices the moved layer's consumers.
TEST(NonUniformLinks, DeltaMatchesFullRemapBitForBit) {
  std::vector<Interconnect::Override> fast;
  for (std::uint32_t i = 0; i < 12; i += 3) fast.emplace_back(i, gbps(1.25));
  Interconnect::HierarchicalSpec spec;
  spec.group_size = 4;
  spec.intra_bw = gbps(1.25);
  spec.uplink_bw = gbps(0.25);
  spec.host_bw = gbps(0.5);
  spec.hop_latency_s = 2e-6;

  for (const SystemConfig& sys :
       {SystemConfig::standard(Interconnect::mixed(gbps(0.125), fast)),
        SystemConfig::standard(Interconnect::hierarchical(spec))}) {
    ASSERT_FALSE(sys.links().uniform_links());
    for (const ZooInfo& info : zoo_catalog()) {
      const ModelGraph model = make_model(info.id);
      PlanOptions steps123;
      steps123.run_remapping = false;
      const PlanResponse seed = plan_once(model, sys, steps123);
      const Simulator sim(model, sys);
      EXPECT_EQ(
          testing::compare_remap_with_reference(sim, seed.mapping, seed.plan)
              .diff,
          "")
          << info.key << " on " << to_string(sys.links().shape());
    }
  }
}

// Planner sessions must not alias across topologies: same model and base
// bandwidth, different links -> different cached cost state, different plans.
TEST(NonUniformLinks, PlannerKeysSessionsOnTopology) {
  Planner planner;
  std::vector<Interconnect::Override> fast;
  for (std::uint32_t i = 0; i < 12; i += 2) fast.emplace_back(i, gbps(1.25));

  const PlanResponse uniform = planner.plan(PlanRequest::zoo(
      ZooModel::CasiaSurf, Interconnect::uniform(gbps(0.125))));
  const PlanResponse mixed = planner.plan(PlanRequest::zoo(
      ZooModel::CasiaSurf, Interconnect::mixed(gbps(0.125), fast)));
  EXPECT_EQ(planner.cache_misses(), 2u);  // distinct sessions
  EXPECT_NE(bits(uniform.final_result().latency),
            bits(mixed.final_result().latency));

  // Re-requesting either topology hits its warm session.
  const PlanResponse again = planner.plan(PlanRequest::zoo(
      ZooModel::CasiaSurf, Interconnect::mixed(gbps(0.125), fast)));
  EXPECT_TRUE(again.warm);
  EXPECT_EQ(bits(again.final_result().latency),
            bits(mixed.final_result().latency));
}

}  // namespace
}  // namespace h2h
