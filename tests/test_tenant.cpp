#include <gtest/gtest.h>

#include <limits>

#include "core/planner.h"
#include "tenant/co_mapper.h"
#include "test_helpers.h"
#include "util/error.h"

namespace h2h {
namespace {

[[nodiscard]] TenantRequest tenant(std::string name, ZooModel model,
                                   double slo_s = std::numeric_limits<
                                       double>::infinity(),
                                   std::uint32_t priority = 1,
                                   CapabilityMask caps = 0) {
  TenantRequest t;
  t.name = std::move(name);
  t.model = model;
  t.slo_s = slo_s;
  t.priority = priority;
  t.required_caps = caps;
  return t;
}

// ---------------------------------------------------------------- grammar

TEST(TenantSpecTest, ParsesFullGrammar) {
  const std::vector<TenantRequest> reqs = parse_tenants_spec(
      "cam=vlocnet:slo=0.05:prio=2;mic=mocap:slo=0.02;aux=vfs:caps=bigmem");
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].name, "cam");
  EXPECT_EQ(reqs[0].model, ZooModel::VLocNet);
  EXPECT_DOUBLE_EQ(reqs[0].slo_s, 0.05);
  EXPECT_EQ(reqs[0].priority, 2u);
  EXPECT_EQ(reqs[0].required_caps, 0u);
  EXPECT_EQ(reqs[1].model, ZooModel::MoCap);
  EXPECT_FALSE(reqs[2].has_slo());
  EXPECT_EQ(reqs[2].required_caps, kCapBigMem);
}

TEST(TenantSpecTest, RejectsMalformedSpecs) {
  // Shape errors.
  EXPECT_THROW((void)parse_tenants_spec(""), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("=vlocnet"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam="), ConfigError);
  // Stray separators / trailing junk.
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap;"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec(";cam=mocap"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap::slo=1"), ConfigError);
  // Unknown model / field.
  EXPECT_THROW((void)parse_tenants_spec("cam=resnet9000"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:deadline=1"), ConfigError);
  // Bad values.
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=0"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=-1"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=fast"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=1x"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:prio=two"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:caps=warp"), ConfigError);
  // Duplicate fields.
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=1:slo=2"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:prio=1:prio=2"),
               ConfigError);
}

// --------------------------------------------------------------- TenantSet

TEST(TenantSetTest, ValidatesRequests) {
  EXPECT_THROW(TenantSet({}), ConfigError);
  EXPECT_THROW(TenantSet({tenant("", ZooModel::MoCap)}), ConfigError);
  EXPECT_THROW(TenantSet({tenant("a/b", ZooModel::MoCap)}), ConfigError);
  EXPECT_THROW(TenantSet({tenant("a", ZooModel::MoCap),
                          tenant("a", ZooModel::Vfs)}),
               ConfigError);
  EXPECT_THROW(TenantSet({tenant("a", ZooModel::MoCap, -1.0)}), ConfigError);

  // Exactly one model source.
  TenantRequest none;
  none.name = "x";
  EXPECT_THROW(TenantSet({none}), ConfigError);
  const ModelGraph chain = testing::make_chain_model();
  TenantRequest both = tenant("x", ZooModel::MoCap);
  both.graph = &chain;
  EXPECT_THROW(TenantSet({both}), ConfigError);
}

TEST(TenantSetTest, StampsCapsOnPlaceableLayers) {
  const TenantSet set({tenant("a", ZooModel::MoCap, 1.0, 1, kCapBigMem)});
  for (const LayerId id : set.model(0).all_layers()) {
    const Layer& l = set.model(0).layer(id);
    EXPECT_EQ(l.required_caps, l.kind == LayerKind::Input ? 0u : kCapBigMem);
  }
}

TEST(TenantSetTest, UnionModelConcatenatesSpans) {
  const TenantSet set(
      {tenant("a", ZooModel::MoCap), tenant("b", ZooModel::CnnLstm)});
  std::vector<TenantSpan> spans;
  const ModelGraph u = set.build_union(spans);
  u.validate();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].end, set.model(0).layer_count());
  EXPECT_EQ(spans[1].begin, spans[0].end);
  EXPECT_EQ(spans[1].end, u.layer_count());
  EXPECT_EQ(u.layer_count(),
            set.model(0).layer_count() + set.model(1).layer_count());
  // Names carry the tenant prefix; edges stay within the span.
  for (const LayerId id : u.all_layers()) {
    const bool first = spans[0].contains(id);
    EXPECT_TRUE(u.layer(id).name.rfind(first ? "a/" : "b/", 0) == 0);
    for (const LayerId p : u.graph().preds(id))
      EXPECT_EQ(spans[0].contains(p), first);
  }
}

TEST(TenantSetTest, UnionRejectsBatchDisagreement) {
  ModelGraph batched = make_model(ZooModel::MoCap);
  batched.set_batch(4);
  TenantRequest b;
  b.name = "b";
  b.graph = &batched;
  const TenantSet set({tenant("a", ZooModel::MoCap), b});
  std::vector<TenantSpan> spans;
  EXPECT_THROW((void)set.build_union(spans), ConfigError);
}

// ------------------------------------------------------------ slack order

TEST(TenantSlackTest, NormalizedSlackClampsToUnitWindow) {
  EXPECT_DOUBLE_EQ(normalized_slack(0.4, 0.5, 1.0), 0.1);
  EXPECT_DOUBLE_EQ(normalized_slack(0.9, 0.5, 1.0), 0.0);  // overdue
  EXPECT_DOUBLE_EQ(normalized_slack(0.1, 5.0, 1.0), 1.0);  // saturates
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(normalized_slack(0.1, inf, 1.0), 1.0);  // no SLO
}

TEST(TenantSlackTest, OrdersByUrgencyThenPriorityThenIndex) {
  const TenantSet set({tenant("late", ZooModel::MoCap, 0.1),
                       tenant("easy", ZooModel::MoCap, 10.0),
                       tenant("vip", ZooModel::MoCap, 10.0, /*priority=*/5),
                       tenant("free", ZooModel::MoCap)});
  // Latencies: "late" is overdue; "easy"/"vip" tie on slack; "free" has no
  // SLO and saturates at 1.
  const std::vector<std::size_t> order =
      slack_order(set, {0.2, 0.2, 0.2, 0.2}, 10.0);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1, 3}));
}

// ---------------------------------------------------------------- CoMapper

TEST(CoMapperTest, SingleTenantIsBitIdenticalToPlanner) {
  for (const BandwidthSetting bw :
       {BandwidthSetting::LowMinus, BandwidthSetting::Mid}) {
    const SystemConfig sys = SystemConfig::standard(bw);
    Planner planner(sys);
    CoMapper owning(sys);
    Planner sessions;  // owned systems at each request's BW_acc
    CoMapper borrowing(sessions, bandwidth_value(bw));
    for (const ZooInfo& info : zoo_catalog()) {
      const PlanResponse p =
          planner.plan(PlanRequest::zoo(info.id, bandwidth_value(bw)));
      for (CoMapper* co : {&owning, &borrowing}) {
        const CoMapResult r =
            co->co_map(TenantSet({tenant("solo", info.id)}));
        ASSERT_EQ(r.model.layer_count(), p.mapping.size());
        for (const LayerId id : r.model.all_layers()) {
          EXPECT_EQ(r.mapping.acc_of(id).value, p.mapping.acc_of(id).value);
          EXPECT_EQ(r.mapping.seq_of(id), p.mapping.seq_of(id));
          EXPECT_EQ(r.plan.pinned(id), p.plan.pinned(id));
        }
        EXPECT_EQ(r.plan.fused_edge_count(), p.plan.fused_edge_count());
        EXPECT_EQ(r.schedule.latency, p.final_result().latency);
        EXPECT_EQ(r.schedule.energy.total(),
                  p.final_result().energy.total());
      }
    }
  }
}

/// The pinned three-tenant contention fixture (CoMappingMeetsSlos below).
[[nodiscard]] TenantSet contention_fixture() {
  return TenantSet({tenant("cam", ZooModel::CasiaSurf, 0.012, 3),
                    tenant("act", ZooModel::CnnLstm, 0.010, 2),
                    tenant("emo", ZooModel::MoCap, 0.010, 1)});
}

void expect_same_comap(const CoMapResult& a, const CoMapResult& b) {
  ASSERT_EQ(a.model.layer_count(), b.model.layer_count());
  for (const LayerId id : a.model.all_layers()) {
    EXPECT_EQ(a.mapping.acc_of(id).value, b.mapping.acc_of(id).value);
    EXPECT_EQ(a.mapping.seq_of(id), b.mapping.seq_of(id));
    EXPECT_EQ(a.plan.pinned(id), b.plan.pinned(id));
  }
  EXPECT_EQ(a.plan.fused_edge_count(), b.plan.fused_edge_count());
  // Bit-identity: exact double comparison is deliberate.
  EXPECT_EQ(a.schedule.latency, b.schedule.latency);
  EXPECT_EQ(a.schedule.energy.total(), b.schedule.energy.total());
  EXPECT_EQ(a.seq_makespan_s, b.seq_makespan_s);
  EXPECT_EQ(a.violation_s, b.violation_s);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.steal_ran, b.steal_ran);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].solo_latency_s, b.tenants[i].solo_latency_s);
    EXPECT_EQ(a.tenants[i].seq_latency_s, b.tenants[i].seq_latency_s);
    EXPECT_EQ(a.tenants[i].latency_s, b.tenants[i].latency_s);
  }
}

TEST(CoMapperTest, BorrowedPlannerMatchesOwnedAndReusesZooSessions) {
  for (const BandwidthSetting bw :
       {BandwidthSetting::LowMinus, BandwidthSetting::Mid}) {
    const double bw_acc = bandwidth_value(bw);
    const SystemConfig sys = SystemConfig::standard(bw);
    const CoMapResult want = CoMapper(sys).co_map(contention_fixture());

    // Plan requests for the three tenant models build the sessions the
    // solo plans use, so a co-map adds one session: the union's.
    Planner planner;
    for (const ZooModel m :
         {ZooModel::CasiaSurf, ZooModel::CnnLstm, ZooModel::MoCap}) {
      (void)planner.plan(PlanRequest::zoo(m, bw_acc));
    }
    const std::uint64_t misses = planner.cache_misses();
    CoMapper co(planner, bw_acc);
    expect_same_comap(co.co_map(contention_fixture()), want);
    EXPECT_EQ(planner.cache_misses(), misses + 1);
    expect_same_comap(co.co_map(contention_fixture()), want);
    EXPECT_EQ(planner.cache_misses(), misses + 1);
    EXPECT_EQ(planner.session_count(), 4u);
  }

  // A capability mask changes the tenant's model, so its solo plan keys on
  // the stamped graph, not on the model's zoo session.
  Planner planner;
  const double bw_acc = bandwidth_value(BandwidthSetting::Mid);
  (void)planner.plan(PlanRequest::zoo(ZooModel::MoCap, bw_acc));
  const std::uint64_t misses = planner.cache_misses();
  CoMapper co(planner, bw_acc);
  (void)co.co_map(TenantSet({tenant("fast", ZooModel::MoCap, 1.0, 1,
                                    kCapFastMem)}));
  EXPECT_EQ(planner.cache_misses(), misses + 2);  // solo and union
}

/// The tentpole fixture: three tenants contending at Low- bandwidth.
/// Sequential deployment (each planned as if alone) leaves "act" and "emo"
/// queued behind "cam" on the shared boards and both miss their SLOs;
/// co-mapping meets all three (numbers surveyed offline; the assertions
/// only use the orderings, not pinned values).
TEST(CoMapperTest, CoMappingMeetsSlosSequentialMisses) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  CoMapper co(sys);
  const CoMapResult r = co.co_map(contention_fixture());

  EXPECT_GT(r.seq_violation_s, 0.0);  // sequential planning misses SLOs
  EXPECT_DOUBLE_EQ(r.violation_s, 0.0);
  EXPECT_TRUE(r.all_slos_met);
  EXPECT_LT(r.schedule.latency, r.seq_makespan_s);

  EXPECT_GT(r.outcome("act").seq_latency_s, 0.010);
  EXPECT_GT(r.outcome("emo").seq_latency_s, 0.010);
  for (const TenantOutcome& o : r.tenants) {
    EXPECT_TRUE(o.met);
    EXPECT_LE(o.latency_s, o.slo_s);
    EXPECT_GE(o.slack_s, 0.0);
    // Solo latency (idle system) lower-bounds any shared deployment.
    EXPECT_LE(o.solo_latency_s, o.latency_s + 1e-12);
  }
  EXPECT_THROW((void)r.outcome("nobody"), ConfigError);
}

TEST(CoMapperTest, CoMapIsDeterministic) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  CoMapper co(sys);
  const TenantSet set({tenant("a", ZooModel::MoCap, 0.01),
                       tenant("b", ZooModel::CnnLstm, 0.01)});
  const CoMapResult r1 = co.co_map(set);
  const CoMapResult r2 = co.co_map(set);  // warm solo sessions this time
  EXPECT_EQ(r1.schedule.latency, r2.schedule.latency);
  EXPECT_EQ(r1.violation_s, r2.violation_s);
  EXPECT_EQ(r1.rounds, r2.rounds);
  for (const LayerId id : r1.model.all_layers())
    EXPECT_EQ(r1.mapping.acc_of(id).value, r2.mapping.acc_of(id).value);
}

TEST(CoMapperTest, CapabilityConstraintsHoldPerTenant) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  CoMapper co(sys);
  const TenantSet set(
      {tenant("fast", ZooModel::MoCap, /*slo=*/1.0, 1, kCapFastMem),
       tenant("any", ZooModel::CasiaSurf)});
  const CoMapResult r = co.co_map(set);
  const TenantSpan span = r.outcome("fast").span;
  for (std::uint32_t l = span.begin; l < span.end; ++l) {
    const LayerId id{l};
    if (r.model.layer(id).kind == LayerKind::Input) continue;
    EXPECT_TRUE(can_serve(sys.capabilities(r.mapping.acc_of(id)),
                          kCapFastMem));
  }
}

TEST(CoMapperTest, InfeasibleCapabilityThrows) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  CoMapper co(sys);
  const TenantSet set({tenant("ghost", ZooModel::MoCap, 1.0, 1, 0x100)});
  EXPECT_THROW((void)co.co_map(set), CapabilityError);
}

}  // namespace
}  // namespace h2h
