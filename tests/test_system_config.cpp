#include <gtest/gtest.h>

#include "accel/analytical_models.h"
#include "accel/catalog.h"
#include "system/system_config.h"
#include "test_helpers.h"
#include "util/error.h"

namespace h2h {
namespace {

TEST(BandwidthSettings, MatchPaperValues) {
  EXPECT_DOUBLE_EQ(bandwidth_value(BandwidthSetting::LowMinus), 0.125e9);
  EXPECT_DOUBLE_EQ(bandwidth_value(BandwidthSetting::Low), 0.15e9);
  EXPECT_DOUBLE_EQ(bandwidth_value(BandwidthSetting::MidMinus), 0.25e9);
  EXPECT_DOUBLE_EQ(bandwidth_value(BandwidthSetting::Mid), 0.5e9);
  EXPECT_DOUBLE_EQ(bandwidth_value(BandwidthSetting::High), 1.25e9);
  EXPECT_EQ(all_bandwidth_settings().size(), 5u);
  EXPECT_EQ(to_string(BandwidthSetting::LowMinus), "Low-");
}

TEST(SystemConfig, StandardSystemHasTwelveAccelerators) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  EXPECT_EQ(sys.accelerator_count(), 12u);
  EXPECT_DOUBLE_EQ(sys.host().bw_acc, 0.5e9);
  EXPECT_EQ(sys.spec(AccId{0}).name, "J.Z");
  EXPECT_EQ(sys.spec(AccId{11}).name, "B.L");
}

TEST(SystemConfig, SupportingFiltersByKind) {
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  EXPECT_EQ(sys.supporting(LayerKind::Conv).size(), 9u);
  EXPECT_EQ(sys.supporting(LayerKind::Lstm).size(), 5u);
  // Structural layers run everywhere.
  EXPECT_EQ(sys.supporting(LayerKind::Pool).size(), 12u);
  EXPECT_EQ(sys.supporting(LayerKind::Concat).size(), 12u);
}

TEST(SystemConfig, BandwidthOverridePerAccelerator) {
  std::vector<AcceleratorPtr> accs;
  for (auto& s : standard_catalog())
    accs.push_back(make_analytical(std::move(s)));
  const SystemConfig sys(std::move(accs),
                         Interconnect::mixed(0.5e9, {{0, 2e9}}));
  EXPECT_DOUBLE_EQ(sys.bw_acc(AccId{0}), 2e9);
  EXPECT_DOUBLE_EQ(sys.bw_acc(AccId{1}), 0.5e9);
  EXPECT_DOUBLE_EQ(sys.host().bw_acc, 0.5e9);  // the topology's base speed
}

TEST(SystemConfig, SetBwAccSweeps) {
  SystemConfig sys = SystemConfig::standard(0.5e9);
  sys.set_bw_acc(1.25e9);
  EXPECT_DOUBLE_EQ(sys.bw_acc(AccId{3}), 1.25e9);
  EXPECT_THROW(sys.set_bw_acc(0), ContractViolation);
}

TEST(SystemConfig, RejectsInvalidConfigurations) {
  HostParams host;
  EXPECT_THROW(SystemConfig({}, host), ConfigError);

  std::vector<AcceleratorPtr> dup;
  dup.push_back(make_analytical(testing::simple_spec("A", gib(1))));
  dup.push_back(make_analytical(testing::simple_spec("A", gib(1))));
  EXPECT_THROW(SystemConfig(std::move(dup), host), ConfigError);

  std::vector<AcceleratorPtr> ok;
  ok.push_back(make_analytical(testing::simple_spec("A", gib(1))));
  HostParams bad_bw;
  bad_bw.bw_acc = -1;
  EXPECT_THROW(SystemConfig(std::move(ok), bad_bw), ConfigError);
}

TEST(SystemConfig, LinkOverrideSteersThePipeline) {
  // Two identical accelerators; one has a 10x faster host link. At low
  // system bandwidth the mapper must exploit the fast-linked device for the
  // traffic-heavy layers.
  std::vector<AcceleratorPtr> accs;
  accs.push_back(make_analytical(testing::simple_spec("SLOW", gib(1))));
  accs.push_back(make_analytical(testing::simple_spec("FAST", gib(1))));
  const SystemConfig sys(std::move(accs),
                         Interconnect::mixed(0.125e9, {{1, 1.25e9}}));

  const ModelGraph m = testing::make_chain_model();
  const PlanResponse r = plan_once(m, sys);
  // Every layer lands on the fast-linked accelerator (identical compute,
  // strictly cheaper transfers).
  for (const LayerId id : m.all_layers()) {
    if (m.layer(id).kind == LayerKind::Input) continue;
    EXPECT_EQ(r.mapping.acc_of(id), AccId{1}) << m.layer(id).name;
  }
}

TEST(AccIdSemantics, HostSentinel) {
  EXPECT_TRUE(AccId::host().is_host());
  EXPECT_TRUE(AccId::host().valid());
  EXPECT_FALSE(AccId{}.valid());
  const SystemConfig sys = testing::make_uniform_system(2);
  EXPECT_FALSE(sys.contains(AccId::host()));
  EXPECT_TRUE(sys.contains(AccId{1}));
  EXPECT_FALSE(sys.contains(AccId{2}));
}

}  // namespace
}  // namespace h2h
