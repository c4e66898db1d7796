// In-process replay of a serve request stream. Replayer answers wire lines
// the way `h2h serve` does — same parse, same Planner / CoMapper /
// RepairEngine calls, same response writers — so its lines are the
// reference the served responses are checked against, and, given a
// Tracer, it records the per-layer spans of each request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "core/planner.h"
#include "serve/protocol.h"
#include "trace.h"

namespace perfbench {

/// Planner::plan with every pass of the default pipeline wrapped in a span,
/// plus the intervals between them: "planner.session" (session lookup or
/// cold build, before the first pass) and one "simulator.snapshot" after
/// each pass — run_passes does nothing else there but simulate the
/// snapshot (the last interval also covers its few-microsecond epilogue).
/// All spans nest under one "planner.plan" span. Results are bit-identical
/// to Planner::plan(request): the wrappers only forward.
[[nodiscard]] h2h::PlanResponse traced_plan(h2h::Planner& planner,
                                            h2h::PlanRequest request,
                                            Tracer& tracer,
                                            h2h::CompPrioritizedStats& step1);

/// Builds, in a "cost_table.build" span, the CostTable a cold session for
/// `request` constructs. Extra work outside the request's own spans: the
/// library does not expose its session build's parts.
void trace_cost_table_build(const h2h::PlanRequest& request, Tracer& tracer);

/// What one replayed request returned, with the counters the traced run
/// aggregates.
struct Served {
  enum class Kind { Plan, Tenants, Repair, Error };
  Kind kind = Kind::Error;
  std::string line;  // the response line; "timing" is never emitted
  bool ok = false;
  double service_s = 0;  // wall time of the whole process() call

  // Plan requests.
  bool warm = false;
  double setup_s = 0;
  double search_s = 0;  // PlanResponse::search_seconds
  double latency_ratio = 0;  // final / step-2 latency (Table 4, column 4)
  double energy_ratio = 0;
  h2h::RemapStats remap;
  h2h::CompPrioritizedStats step1;  // filled only when traced
  // Tenants requests.
  std::uint32_t rounds = 0;
  // Repair requests.
  std::size_t cone_layers = 0;
  bool used_fallback = false;
};

/// Mirrors the request dispatch of serve/server.cpp's RequestProcessor
/// (not public): one shared Planner, a CoMapper per tenants bandwidth, and
/// repair sessions keyed by (model, batch, bandwidth, links) that adopt
/// the key's latest plan. Single-threaded.
class Replayer {
 public:
  /// With a tracer, every request records spans (see traced_plan).
  explicit Replayer(Tracer* tracer = nullptr);

  [[nodiscard]] Served process(const std::string& line);
  [[nodiscard]] const h2h::Planner& planner() const { return planner_; }

 private:
  struct RepairKey {
    h2h::ZooModel model = h2h::ZooModel::MoCap;
    std::uint32_t batch = 0;
    double bw_gbps = 0;
    std::uint64_t links_fp = 0;
    [[nodiscard]] friend bool operator<(const RepairKey& a,
                                        const RepairKey& b) {
      return std::tie(a.model, a.batch, a.bw_gbps, a.links_fp) <
             std::tie(b.model, b.batch, b.bw_gbps, b.links_fp);
    }
  };
  struct PriorPlan {
    h2h::Mapping mapping;
    h2h::LocalityPlan plan;
  };
  struct RepairSession {
    h2h::ModelGraph model;
    h2h::RepairEngine engine;
    RepairSession(h2h::ModelGraph m, h2h::SystemConfig sys,
                  h2h::RepairOptions opts)
        : model(std::move(m)),
          engine(model, std::move(sys), std::move(opts)) {}
  };
  struct CoMapSession {
    h2h::SystemConfig sys;
    h2h::CoMapper comapper;
    explicit CoMapSession(double bw_gbps)
        : sys(h2h::SystemConfig::standard(bw_gbps * 1e9)), comapper(sys) {}
  };

  [[nodiscard]] static RepairKey repair_key(
      h2h::ZooModel model, std::uint32_t batch, double bw_gbps,
      const std::optional<h2h::Interconnect>& links);
  void plan(h2h::serve::WireRequest req, Served& out);
  void tenants(const h2h::serve::WireTenantsRequest& req, Served& out);
  void repair(h2h::serve::WireRepairRequest req, Served& out);
  [[nodiscard]] const h2h::ModelGraph& model_for(h2h::ZooModel id);

  Tracer* tracer_;
  h2h::Planner planner_;
  h2h::SystemConfig name_sys_;
  std::map<h2h::ZooModel, std::unique_ptr<const h2h::ModelGraph>> models_;
  std::map<double, std::unique_ptr<CoMapSession>> comap_;
  std::map<RepairKey, PriorPlan> priors_;
  std::map<RepairKey, std::unique_ptr<RepairSession>> repairs_;
};

}  // namespace perfbench
