// The serve wire protocol, version 1 (DESIGN.md §8).
//
// Framing is JSON lines: one request object per input line, one response
// object per output line, responses in request order. Every message carries
// `schema_version`; a request whose version this build does not speak is
// answered with an error response, never dropped. All failures — malformed
// JSON, unknown fields, bad values, planning exceptions — become `ok:false`
// responses with a machine-readable error code; exceptions never cross the
// wire and never kill the loop.
//
// Request schema (only `schema_version` and `model` are required):
//
//   {"schema_version":1,            // must equal kSchemaVersion
//    "id":"r1",                     // optional, echoed verbatim
//    "model":"mocap",               // zoo key (model/zoo.h)
//    "bw_gbps":0.5,                 // BW_acc in GB/s, default 0.5
//    "links":{...},                 // link topology; conflicts with bw_gbps
//    "batch":1,                     // default 1
//    "options":{...},               // plan_option_specs() json_key -> value
//    "emit":{"mapping":true,"steps":true,"timing":true}}
//
// The "links" object selects a per-pair link topology (system/interconnect.h)
// instead of the uniform-star scalar; `bw_gbps` stays the uniform spelling
// and the two are mutually exclusive (code "bad_field" when both appear).
// One of (all bandwidths in GB/s):
//
//   {"shape":"uniform","bw_gbps":0.5}
//   {"shape":"mixed","bw_gbps":0.125,
//    "overrides":[{"acc":0,"bw_gbps":1.25},...]}
//   {"shape":"hierarchical","group_size":4,"intra_gbps":1.25,
//    "uplink_gbps":0.25,"host_gbps":0.5,"hop_latency_us":2}
//
// host_gbps and hop_latency_us are optional (host follows the uplink;
// latency defaults to 0). A links response echoes the canonical topology
// plus bw_gbps at the topology's base bandwidth.
//
// The "options" object mirrors PlanOptions 1:1 via the table in
// core/plan_options.h — the same table generates the CLI flags, so
// `h2h serve` and `h2h map` accept identical spellings. Unknown fields
// anywhere are rejected (code "unknown_field"), so typos fail loudly
// instead of silently planning with defaults. Within each object, at every
// level, known members are checked before unknown ones: a line with both a
// stray member and a bad known member in one object answers for the bad
// one. The "options" object, a table of knobs, is checked in member order.
//
// Multi-tenant co-mapping request (tenant/co_mapper.h) — a root "tenants"
// array selects this schema; it shares id/schema_version/bw_gbps/options
// with the single-model form but is otherwise disjoint (no links, no
// batch, no steps):
//
//   {"schema_version":1,
//    "id":"r1",
//    "tenants":[{"name":"cam",          // unique, no '/'
//                "model":"casia-surf",  // zoo key
//                "slo_s":0.012,         // optional latency SLO, seconds
//                "priority":3,          // optional positive integer
//                "caps":"bigmem"},      // optional caps spec (capability.h)
//               ...],                   // 1 to 8 tenants
//    "bw_gbps":0.125,                   // BW_acc in GB/s, default 0.5
//    "options":{...},                   // per-round plan options
//    "max_rounds":3,                    // improvement sweeps after round 1
//    "steal_round":true,
//    "require_slos":false,              // true: an SLO miss is an error
//    "emit":{"mapping":true}}           // tenants emit has only "mapping"
//
// More than 8 tenants in one request is answered with code "bad_field":
// co-mapping cost grows steeply with the tenant count, so one line must not
// hold the server for minutes.
//
// A tenant whose capability mask excludes every supporting accelerator is
// answered with code "infeasible_capability". With "require_slos":true a
// co-mapping that leaves some SLO missed is answered with "slo_violated"
// (the response names the missing tenants); otherwise misses are reported
// in the per-tenant "met" fields of an ok:true response. Tenants responses
// never carry timing, so they are deterministic byte-for-byte — pinned
// across worker counts by test_serve_pipeline.cpp.
//
// A root "repair" member selects the live-repair schema — the full grammar
// and session semantics are documented on WireRepairRequest below.
//
// Responses are deterministic byte-for-byte for a given request and library
// version when "timing" is not emitted (timing carries wall-clock and
// cache-warmth, the only nondeterministic fields). `h2h map --json` emits
// exactly write_response(), `h2h comap --json` exactly
// write_tenants_response(), and `h2h repair --json` exactly
// write_repair_response(), which is what lets CI diff serve output
// hex-exact against the CLI.
#pragma once

#include <string>
#include <string_view>
#include <variant>

#include "core/plan_options.h"
#include "core/planner.h"
#include "repair/fault.h"
#include "repair/repair.h"
#include "tenant/co_mapper.h"

namespace h2h::serve {

inline constexpr int kSchemaVersion = 1;

enum class ErrorCode {
  ParseError,     // line is not valid JSON / not an object
  SchemaVersion,  // missing or unsupported schema_version
  UnknownField,   // a field the schema does not define
  BadField,       // defined field, invalid type or value
  UnknownModel,   // "model" is not a zoo key
  PlanFailed,     // planning itself threw (e.g. infeasible config)
  InfeasibleCapability,  // a tenant's caps exclude every accelerator
  SloViolated,    // require_slos was set and the co-mapping missed an SLO
  UnknownAcc,     // repair event names an accelerator outside the catalog
  NoPriorPlan,    // repair arrived before any plan for its session key
  InfeasibleRepair,  // the fault leaves some layer with no accelerator
};

[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

/// A validated request, ready to hand to a Planner.
struct WireRequest {
  std::string id;  // empty = omitted
  ZooModel model = ZooModel::MoCap;
  double bw_gbps = 0.5;
  /// Explicit link topology; when set, bw_gbps echoes its base bandwidth.
  std::optional<Interconnect> links;
  std::uint32_t batch = 0;  // 0 = model default (1 for zoo models)
  PlanOptions options;
  bool emit_mapping = true;
  bool emit_steps = true;
  bool emit_timing = true;
};

struct WireError {
  ErrorCode code = ErrorCode::ParseError;
  std::string message;
  std::string id;  // echoed when the request's id was parseable
};

/// A validated multi-tenant co-mapping request (root "tenants" schema).
struct WireTenantsRequest {
  std::string id;  // empty = omitted
  std::vector<TenantRequest> tenants;
  double bw_gbps = 0.5;
  PlanOptions options;  // per-round plan knobs (CoMapOptions::plan)
  std::uint32_t max_rounds = 3;
  bool steal_round = true;
  /// When true, a co-mapping that misses any SLO is answered with an
  /// slo_violated error instead of an ok:true response.
  bool require_slos = false;
  bool emit_mapping = true;
};

/// A validated live-repair request (root "repair" schema, DESIGN.md §12).
///
///   {"schema_version":1,
///    "id":"r9",
///    "repair":{"event":"acc_lost","acc":3},  // or "link_degraded"/
///                                            // "spec_derated" + "scale"
///    "model":"mocap",                        // the session key components
///    "bw_gbps":0.5,                          // (or "links"), as in a plan
///    "batch":1,                              // request
///    "options":{...},                        // warm re-plan knobs
///    "fallback_ratio":1.2,                   // optimality bound (>= 0)
///    "emit":{"mapping":true,"timing":true}}
///
/// "scale" is required for link_degraded and spec_derated (a factor in
/// (0, 1]) and rejected for the other kinds. The session key is
/// (model, links-or-bw, batch): a repair repairs the most recent successful
/// plan response for that key on this server, compounding across repair
/// requests; a new plan for the key resets the session. One TCP connection
/// runs its requests in order, so a chain pipelined on one connection is
/// safe; across connections, or on a stdin stream served by a worker pool,
/// out-of-order hazards are the client's (await each response). Failures are
/// error responses — "unknown_acc" (acc outside the catalog),
/// "no_prior_plan" (no plan for the key yet, or the server's bounded
/// session cache has evicted its session since), "bad_field" (contradictory
/// transitions, e.g. losing an already-lost accelerator), and
/// "infeasible_repair" (the fault leaves some layer with no feasible
/// accelerator; the session keeps the pre-fault plan so a later
/// acc_returned can still repair it).
struct WireRepairRequest {
  std::string id;  // empty = omitted
  ZooModel model = ZooModel::MoCap;
  double bw_gbps = 0.5;
  std::optional<Interconnect> links;
  std::uint32_t batch = 0;  // 0 = model default
  PlanOptions options;
  FaultEvent event;
  /// RepairOptions::fallback_ratio for this request (0 forces the
  /// from-scratch comparison on every repair).
  double fallback_ratio = 1.2;
  bool emit_mapping = true;
  bool emit_timing = true;
};

/// Parse + validate one request line; the only parse entry point. A root
/// "tenants" member selects the multi-tenant schema, a root "repair" member
/// the live-repair schema, anything else the single-model schema. All three
/// read every object through one field reader, so the members plan and
/// repair share (model, bw_gbps or links, batch, options, emit) are checked
/// by the same code, and the first fault found is the error.
[[nodiscard]] std::variant<WireRequest, WireTenantsRequest, WireRepairRequest,
                           WireError>
parse_any_request(std::string_view line);

/// The PlanRequest this wire request describes.
[[nodiscard]] PlanRequest to_plan_request(const WireRequest& request);

/// One response line (no trailing newline). `model`/`sys` provide layer and
/// accelerator names; any SystemConfig with the standard catalog works —
/// only spec names are read.
[[nodiscard]] std::string write_response(const WireRequest& request,
                                         const PlanResponse& response,
                                         const ModelGraph& model,
                                         const SystemConfig& sys);

/// One co-mapping response line (no trailing newline): canonical tenant
/// echo, per-tenant outcomes, co-vs-sequential verdict, and (when emitted)
/// the union-model mapping. Carries no timing, so it is deterministic
/// byte-for-byte. `sys` provides accelerator names only.
[[nodiscard]] std::string write_tenants_response(
    const WireTenantsRequest& request, const CoMapResult& result,
    const SystemConfig& sys);

/// One repair response line (no trailing newline): canonical request echo,
/// the fault event, outcome metrics (pre/faulted/post latency, damage-cone
/// size, migration count and bytes), the per-layer migration list, and
/// (when emitted) the repaired mapping. Only "timing" is nondeterministic;
/// with it off the line is deterministic byte-for-byte, which is what lets
/// CI diff serve output hex-exact against `h2h repair --json --no-timing`.
/// Requires result.outcome == Repaired (infeasible repairs answer as
/// write_error lines with code infeasible_repair).
[[nodiscard]] std::string write_repair_response(
    const WireRepairRequest& request, const RepairResult& result,
    const ModelGraph& model, const SystemConfig& sys);

/// One error-response line (no trailing newline).
[[nodiscard]] std::string write_error(const WireError& error);

}  // namespace h2h::serve
