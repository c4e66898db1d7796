// Multi-tenant co-mapping (DESIGN.md §11).
//
// N tenant models share one heterogeneous system. Planning them
// independently ("sequential" deployment: each tenant maps as if alone,
// then all run together) ignores contention — two tenants can both claim
// the fastest conv board and both miss their deadlines. The CoMapper plans
// the *union model* (tenant/tenant.h) as a single H2H problem instead, in
// warm per-tenant rounds:
//
//   1. Solo plans: each tenant planned alone on the idle system (warm
//      Planner sessions), giving the slack baseline and the
//      sequential-deployment comparison point.
//   2. Round 1: tenants in deadline-slack order (most urgent first; the
//      mapf-het normalized-slack rule, priority breaking ties) each replan
//      the whole union with their peers expressed as constraints — step 1
//      forces peer layers to their current accelerators (the placement-
//      preference hook), step 2 force-pins peers' pinned weights, step 4
//      locks peer layers (RemapOptions::locked). Adoption is unconditional:
//      with one tenant every hook is off and the result is bit-identical to
//      Planner::plan (pinned by test_tenant.cpp).
//   3. Rounds 2+: the same sweep, adopting a tenant's replan only when the
//      global score — lexicographic (priority-weighted SLO violation
//      seconds, makespan) — strictly improves; stops early when a full
//      round adopts nothing.
//   4. Steal round: tenants still missing their SLO replan once more with
//      the peers that comfortably meet theirs unlocked, letting an urgent
//      tenant displace ("steal from") a generous one; adopted only on
//      strict score improvement.
//
// Capability constraints ride on the union model's stamped layer masks:
// CostTable admission (accel/capability.h) gates every candidate list, and
// an unplaceable tenant surfaces as CapabilityError before any round runs.
//
// Every plan runs on a Planner's sessions: the solo plans, and the union
// model's Simulator, which is cached like any other session. A zoo tenant
// without a capability mask plans on the very session a plan request for
// its model at that bandwidth uses, so a server that plans and co-maps the
// same models keeps one session per (model, bandwidth), not two.
//
// Thread safety: co_map builds all mutable state per call; concurrent
// co_map calls on one CoMapper are safe (the Planner is itself
// thread-safe). A borrowed SystemConfig must stay unmutated while calls are
// in flight, matching the Planner's shared-system rule.
#pragma once

#include <memory>

#include "core/planner.h"
#include "tenant/tenant.h"

namespace h2h {

struct CoMapOptions {
  /// Per-round pass options (same knobs as a single-tenant PlanRequest).
  PlanOptions plan;
  /// Improvement sweeps after the unconditional round 1 (0 disables them).
  std::uint32_t max_rounds = 3;
  /// Run the final steal round for SLO-missing tenants.
  bool steal_round = true;
  /// Slack normalization window in seconds (the mapf-het rule divides slack
  /// by this before clamping to [0, 1]). 0 auto-selects the largest finite
  /// SLO in the set (1 s when no tenant has one).
  double slack_normalize_s = 0;
};

/// Per-tenant verdict of one co-mapping.
struct TenantOutcome {
  std::string name;
  /// Union-model layer range of this tenant.
  TenantSpan span;
  /// Planned alone on the idle system (round 0's solo plan).
  double solo_latency_s = 0;
  /// Sequential deployment: solo mappings run together (steps 2-3 re-run on
  /// the union so DRAM capacity is shared fairly).
  double seq_latency_s = 0;
  /// Co-mapped latency (finish of the tenant's last layer).
  double latency_s = 0;
  double slo_s = 0;
  /// slo - latency; +infinity when the tenant has no SLO.
  double slack_s = 0;
  /// latency <= slo (always true without an SLO).
  bool met = true;
  std::uint32_t priority = 1;
};

struct CoMapResult {
  /// The union model the mapping below indexes (owned by the result).
  ModelGraph model;
  Mapping mapping;
  LocalityPlan plan;
  ScheduleResult schedule;
  std::vector<TenantOutcome> tenants;

  /// Sequential-deployment comparison point (same union, solo mappings).
  double seq_makespan_s = 0;
  double seq_violation_s = 0;

  /// Priority-weighted SLO violation of the co-mapping, seconds
  /// (sum over tenants of max(1, priority) x max(0, latency - slo)).
  double violation_s = 0;
  /// Improvement sweeps actually run (the unconditional round 1 included).
  std::uint32_t rounds = 0;
  /// True when the steal round ran (some tenant missed after the sweeps).
  bool steal_ran = false;
  bool all_slos_met = true;

  [[nodiscard]] const TenantOutcome& outcome(std::string_view name) const;
};

/// Per-tenant finish times under a union-model schedule: out[i] is the max
/// finish across tenant i's span (the co-mapper's own SLO accounting).
/// Public so live repair (repair/repair.h) can reassess tenant SLOs against
/// a repaired union schedule without re-running the co-mapper.
[[nodiscard]] std::vector<double> tenant_latencies(
    const ScheduleResult& sched, const std::vector<TenantSpan>& spans);

class CoMapper {
 public:
  /// Plans on `planner`'s sessions at BW_acc `bw_acc` (bytes/s). The
  /// Planner must outlive the CoMapper.
  CoMapper(Planner& planner, double bw_acc);
  /// Plans on a shared-system Planner of its own over `sys` (which must
  /// outlive the CoMapper).
  explicit CoMapper(const SystemConfig& sys);
  /// Rvalue systems would dangle (the Planner stores a pointer).
  explicit CoMapper(SystemConfig&&) = delete;

  /// Co-map the tenant set. Throws CapabilityError when some tenant's
  /// capability mask excludes every supporting accelerator, ConfigError on
  /// union-constraint violations (tenant/tenant.h).
  [[nodiscard]] CoMapResult co_map(const TenantSet& tenants,
                                   const CoMapOptions& options = {});

 private:
  std::unique_ptr<Planner> owned_;  // CoMapper(sys) only
  Planner& planner_;
  double bw_acc_;
};

}  // namespace h2h
