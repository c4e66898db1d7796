#include "tenant/co_mapper.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/activation_fusion.h"
#include "core/weight_locality.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// What the round loop minimizes, lexicographically: priority-weighted SLO
/// violation seconds first, union makespan second.
struct Score {
  double violation = 0;
  double makespan = 0;
};

[[nodiscard]] bool improves(const Score& next, const Score& cur) noexcept {
  if (next.violation < cur.violation) return true;
  if (cur.violation < next.violation) return false;
  return next.makespan < cur.makespan - 1e-12;
}

[[nodiscard]] Score score_of(const TenantSet& set,
                             const std::vector<double>& latency,
                             double makespan) {
  Score s;
  s.makespan = makespan;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const TenantRequest& t = set.request(i);
    if (!t.has_slo()) continue;
    const double over = latency[i] - t.slo_s;
    if (over > 0)
      s.violation += static_cast<double>(std::max(1u, t.priority)) * over;
  }
  return s;
}

}  // namespace

std::vector<double> tenant_latencies(const ScheduleResult& sched,
                                     const std::vector<TenantSpan>& spans) {
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (std::uint32_t l = spans[i].begin; l < spans[i].end; ++l)
      out[i] = std::max(out[i], sched.timings[l].finish);
  return out;
}

const TenantOutcome& CoMapResult::outcome(std::string_view name) const {
  for (const TenantOutcome& t : tenants)
    if (t.name == name) return t;
  throw ConfigError(
      strformat("no tenant named '%s'", std::string(name).c_str()));
}

CoMapper::CoMapper(Planner& planner, double bw_acc)
    : planner_(planner), bw_acc_(bw_acc) {}

CoMapper::CoMapper(const SystemConfig& sys)
    : owned_(std::make_unique<Planner>(sys)),
      planner_(*owned_),
      bw_acc_(sys.host().bw_acc) {}

CoMapResult CoMapper::co_map(const TenantSet& set,
                             const CoMapOptions& options) {
  const std::size_t n = set.size();

  // Round 0a: solo plans on the idle system, warm across co_map calls. A
  // zoo tenant without a mask plans on its model's zoo session (stamping no
  // caps changes nothing), the session plan requests use; other tenants
  // key on the stamped model's fingerprint.
  std::vector<PlanResponse> solo;
  solo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TenantRequest& t = set.request(i);
    PlanRequest req = t.model && t.required_caps == 0
                          ? PlanRequest::zoo(*t.model, bw_acc_)
                          : PlanRequest::for_graph(set.model(i), bw_acc_);
    req.options = options.plan;
    solo.push_back(planner_.plan(req));
  }

  // The union model and the one simulator every round shares, a session of
  // its own. A capability-infeasible tenant throws CapabilityError here (or
  // already in its solo plan above), before any round runs.
  std::vector<TenantSpan> spans;
  ModelGraph model = set.build_union(spans);
  const std::shared_ptr<const Simulator> shared_sim =
      planner_.simulator(PlanRequest::for_graph(model, bw_acc_));
  const Simulator& sim = *shared_sim;

  // Round 0b: the sequential-deployment baseline — every tenant keeps its
  // solo mapping, copied span-by-span in solo sequence order (which keeps
  // the union sequence topological: components are disjoint and each solo
  // order is). Steps 2-3 then re-run on the union so the shared DRAM
  // capacity is split once instead of double-booked per tenant.
  Mapping seq_mapping(model);
  LocalityPlan seq_plan(model);
  seq_plan.ensure_acc_count(sim.sys().accelerator_count());
  {
    std::vector<LayerId> order;
    for (std::size_t i = 0; i < n; ++i) {
      const ModelGraph& sm = set.model(i);
      const Mapping& smap = solo[i].mapping;
      order.clear();
      for (const LayerId sid : sm.all_layers())
        if (sm.layer(sid).kind != LayerKind::Input) order.push_back(sid);
      std::sort(order.begin(), order.end(), [&smap](LayerId a, LayerId b) {
        return smap.seq_of(a) < smap.seq_of(b);
      });
      for (const LayerId sid : order)
        seq_mapping.assign(LayerId{spans[i].begin + sid.value},
                           smap.acc_of(sid));
    }
  }
  if (options.plan.run_weight_locality)
    optimize_weight_locality(sim, seq_mapping, seq_plan, options.plan.weight);
  if (options.plan.run_fusion)
    optimize_activation_fusion(sim, seq_mapping, seq_plan,
                               options.plan.fusion);
  const ScheduleResult seq_sched = sim.simulate(seq_mapping, seq_plan);
  const std::vector<double> seq_lat = tenant_latencies(seq_sched, spans);
  const Score seq_score = score_of(set, seq_lat, seq_sched.latency);

  // The mapf-het normalization window for slack ordering.
  double normalize = options.slack_normalize_s;
  if (normalize <= 0) {
    for (const TenantRequest& t : set.requests())
      if (t.has_slo()) normalize = std::max(normalize, t.slo_s);
    if (normalize <= 0) normalize = 1.0;
  }

  Mapping cur = seq_mapping;
  LocalityPlan cur_plan = seq_plan;
  ScheduleResult cur_sched = seq_sched;
  std::vector<double> cur_lat = seq_lat;
  Score cur_score = seq_score;

  // Replan the whole union for one tenant, peers expressed as constraints.
  const auto run_round = [&](std::size_t active) -> PlanResponse {
    if (n == 1) {
      // No peers: every hook stays off, so this is the plain default
      // pipeline — bit-identical to Planner::plan on the same model/system
      // (pinned by test_tenant.cpp).
      return run_passes(sim, make_default_pipeline(options.plan),
                        options.plan.time_budget_s);
    }
    PlanOptions po = options.plan;
    const TenantSpan span = spans[active];
    // Step 1: peer layers are forced to their current accelerators through
    // the placement-preference hook (their candidate lists collapse to one
    // entry, so enumeration effort stays on the active tenant).
    const auto snapshot = std::make_shared<Mapping>(cur);
    po.step1.preferred = [snapshot, span](LayerId id) -> std::optional<AccId> {
      if (span.contains(id)) return std::nullopt;
      const AccId a = snapshot->acc_of(id);
      return a.is_host() ? std::nullopt : std::optional<AccId>(a);
    };
    // Steps 2/4: peers' pinned weights stay pinned and peer layers never
    // move (the step-4 probe re-runs step 2 internally, so the pin mask is
    // threaded there too).
    std::vector<bool> pin(model.layer_count(), false);
    std::vector<bool> locked(model.layer_count(), false);
    for (std::uint32_t l = 0; l < model.layer_count(); ++l) {
      if (span.contains(LayerId{l})) continue;
      locked[l] = true;
      pin[l] = cur_plan.pinned(LayerId{l});
    }
    po.weight.force_pin = &pin;
    po.remap.weight.force_pin = &pin;
    po.remap.locked = &locked;
    return run_passes(sim, make_default_pipeline(po), po.time_budget_s);
  };

  const auto adopt = [&](PlanResponse&& r) {
    cur_sched = r.final_result();
    cur = std::move(r.mapping);
    cur_plan = std::move(r.plan);
    cur_lat = tenant_latencies(cur_sched, spans);
    cur_score = score_of(set, cur_lat, cur_sched.latency);
  };

  // Round 1 adopts unconditionally (every tenant gets one full replan with
  // its peers fixed); later sweeps only on strict score improvement, so the
  // loop terminates.
  std::uint32_t rounds = 0;
  for (std::uint32_t round = 0; round < 1 + options.max_rounds; ++round) {
    bool adopted = false;
    for (const std::size_t i : slack_order(set, cur_lat, normalize)) {
      PlanResponse r = run_round(i);
      const ScheduleResult& sched = r.final_result();
      const Score sc =
          score_of(set, tenant_latencies(sched, spans), sched.latency);
      if (round == 0 || improves(sc, cur_score)) {
        adopt(std::move(r));
        adopted = true;
      }
    }
    ++rounds;
    if (n == 1) break;            // identical replans from here on
    if (round > 0 && !adopted) break;
  }

  // Steal round: a tenant still missing its SLO replans once more with the
  // comfortably-meeting peers unlocked — step 4 may displace their layers.
  bool steal_ran = false;
  if (options.steal_round && n > 1) {
    for (const std::size_t i : slack_order(set, cur_lat, normalize)) {
      const TenantRequest& t = set.request(i);
      if (!t.has_slo() || cur_lat[i] <= t.slo_s) continue;
      steal_ran = true;
      std::vector<bool> locked(model.layer_count(), false);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const TenantRequest& p = set.request(j);
        if (!p.has_slo() || cur_lat[j] <= p.slo_s) continue;  // stealable
        for (std::uint32_t l = spans[j].begin; l < spans[j].end; ++l)
          locked[l] = true;
      }
      PlanOptions po = options.plan;
      po.remap.locked = &locked;
      PassPipeline pipe;
      pipe.push_back(make_warm_start_pass(cur));
      if (po.run_weight_locality)
        pipe.push_back(make_weight_locality_pass(po.weight));
      if (po.run_fusion) pipe.push_back(make_activation_fusion_pass(po.fusion));
      if (po.run_remapping) pipe.push_back(make_remapping_pass(po.remap));
      PlanResponse r = run_passes(sim, pipe, po.time_budget_s);
      const ScheduleResult& sched = r.final_result();
      const Score sc =
          score_of(set, tenant_latencies(sched, spans), sched.latency);
      if (improves(sc, cur_score)) adopt(std::move(r));
    }
  }

  CoMapResult res{std::move(model),    std::move(cur), std::move(cur_plan),
                  std::move(cur_sched), {},             seq_sched.latency,
                  seq_score.violation, cur_score.violation,
                  rounds,              steal_ran,       true};
  res.tenants.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TenantRequest& t = set.request(i);
    TenantOutcome o;
    o.name = t.name;
    o.span = spans[i];
    o.solo_latency_s = solo[i].final_result().latency;
    o.seq_latency_s = seq_lat[i];
    o.latency_s = cur_lat[i];
    o.slo_s = t.slo_s;
    o.slack_s = t.has_slo() ? t.slo_s - cur_lat[i] : kInf;
    o.met = !t.has_slo() || cur_lat[i] <= t.slo_s;
    o.priority = t.priority;
    res.all_slos_met = res.all_slos_met && o.met;
    res.tenants.push_back(std::move(o));
  }
  return res;
}

}  // namespace h2h
