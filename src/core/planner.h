// The session-style planning facade (DESIGN.md §7): the library's primary
// entry point.
//
// The paper's value proposition is *repeated* fast search — Fig. 5b's
// sub-second remapping lets a multi-sensor system re-plan whenever bandwidth
// or modality changes. A Planner makes that cheap in practice: it owns a
// cache of constructed Simulator/CostTable state keyed by (model, BW_acc,
// batch, link topology), so consecutive PlanRequests for the same scenario
// skip the cold-start cost-table build entirely. A warm plan() performs zero
// virtual AcceleratorModel calls and no CostTable rebuild (regression-tested
// with counting models in test_planner.cpp).
//
// Typical usage:
//
//   h2h::Planner planner;                       // standard 12-acc system
//   auto r = planner.plan(h2h::PlanRequest::zoo(
//       h2h::ZooModel::MoCap, h2h::BandwidthSetting::LowMinus));
//   // ... bandwidth changes at runtime:
//   auto r2 = planner.plan(h2h::PlanRequest::zoo(
//       h2h::ZooModel::MoCap, h2h::BandwidthSetting::Mid));
//   // ... and back — this one is warm: r3.warm == true, setup_seconds == 0.
//   auto r3 = planner.plan(h2h::PlanRequest::zoo(
//       h2h::ZooModel::MoCap, h2h::BandwidthSetting::LowMinus));
//
// Behind the facade every request runs a pass pipeline (mapping_pass.h);
// plan() without an explicit pipeline assembles the paper's four steps from
// the request's toggles.
//
// The cache is one least-recently-used list of at most max_sessions
// sessions. A session can also carry one opaque state pointer for its
// caller (with_session_state; `h2h serve` keeps a scenario's latest plan and
// repair chain there), which is evicted together with the session.
//
// Thread safety (DESIGN.md §8): concurrent plan() calls on one Planner are
// safe. One mutex guards the list, held only to find, insert or evict a
// session; each in-flight request gets its own mutable Mapping/LocalityPlan/
// PassContext, and a session's Simulator/CostTable are read-only once built,
// so N threads can answer from the same warm session at once. Sessions are
// reference-counted: evicting one that another thread is still planning on
// only drops the cache's reference. The one sharing caveat is shared-system
// mode: mutating the borrowed SystemConfig (set_bw_acc) while requests are
// in flight is a data race and is forbidden — quiesce first.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/mapping_pass.h"
#include "model/zoo.h"

namespace h2h {

/// Per-step toggles and options of the pipeline (the legacy H2HOptions).
/// Disabled steps are skipped entirely — no snapshot is recorded for them.
struct PlanOptions {
  CompPrioritizedOptions step1;
  WeightLocalityOptions weight;
  FusionOptions fusion;
  RemapOptions remap;
  /// Disable step 4 (used to study the post-optimizations alone).
  bool run_remapping = true;
  /// Disable step 2 (ablations; note baseline_result() then has no target).
  /// Step 4 re-runs weight locality and fusion internally per candidate
  /// move, so disabling steps 2-3 is a true ablation only together with
  /// run_remapping = false.
  bool run_weight_locality = true;
  /// Disable step 3 (same caveat as run_weight_locality).
  bool run_fusion = true;
  /// Wall-clock budget for the whole search; the remapping pass stops
  /// cleanly when it is exhausted (PlanResponse::stopped_on_budget).
  std::optional<double> time_budget_s;
};

struct StepSnapshot {
  std::string name;        // "1: computation-prioritized", ...
  ScheduleResult result;   // full schedule + energy after this step
};

/// One planning request. Exactly one of `model` (zoo key) or `graph`
/// (caller-owned ModelGraph, copied into the session on a cache miss) must
/// be set. Prefer the static builders below over filling fields by hand.
struct PlanRequest {
  std::optional<ZooModel> model;
  const ModelGraph* graph = nullptr;
  /// System-wide accelerator-host bandwidth BW_acc, bytes/s. Part of the
  /// session cache key. Ignored by Planners borrowing a shared system (the
  /// shared system's own BW_acc applies).
  double bw_acc = 0.5e9;
  /// Optional explicit link topology. When set, the session's system is
  /// SystemConfig::standard(*links) — the custom system_factory does not
  /// apply — and the topology parameters join the session cache key
  /// (distinct topologies never share a CostTable). Ignored in
  /// shared-system mode, where the borrowed system's own topology rules.
  std::optional<Interconnect> links;
  /// Inference batch size; part of the cache key. 0 inherits the graph's
  /// batch (or 1 for zoo models).
  std::uint32_t batch = 0;
  /// Per-step toggles/options, including the remap objective
  /// (options.remap.objective) and the search time budget
  /// (options.time_budget_s). Every knob here has a string spelling in
  /// core/plan_options.h — the same table drives the CLI flags and the
  /// serve wire schema.
  PlanOptions options;
  /// Seed the pipeline from a prior response's mapping instead of running
  /// step 1 (must belong to the same model). Caller-owned.
  const Mapping* warm_start = nullptr;
  /// Skip ModelGraph::validate on the cold build (dynamic-modality subset
  /// variants legitimately keep single-input Concats).
  bool validate_model = true;

  [[nodiscard]] static PlanRequest zoo(ZooModel id, double bw_acc,
                                       std::uint32_t batch = 0);
  [[nodiscard]] static PlanRequest zoo(ZooModel id, BandwidthSetting bw,
                                       std::uint32_t batch = 0);
  /// Zoo model on an explicit topology (bw_acc follows its base bandwidth).
  [[nodiscard]] static PlanRequest zoo(ZooModel id, Interconnect links,
                                       std::uint32_t batch = 0);
  [[nodiscard]] static PlanRequest for_graph(const ModelGraph& graph,
                                             double bw_acc,
                                             std::uint32_t batch = 0);
};

/// A completed plan. For the default pipeline a Planner response is
/// bit-identical to plan_once() on the same inputs, cold or warm (pinned
/// across the zoo x bandwidth grid).
struct PlanResponse {
  Mapping mapping;
  LocalityPlan plan;
  std::vector<StepSnapshot> steps;  // one per executed pass, in order
  RemapStats remap_stats;
  /// Wall-clock of the pass pipeline alone (Fig. 5b's search time).
  double search_seconds = 0;
  /// Cold-start cost: model copy + SystemConfig + Simulator/CostTable
  /// construction. Zero on a warm (cache-hit) request.
  double setup_seconds = 0;
  /// True when the session cache served this request without rebuilding.
  bool warm = false;
  /// True when remapping stopped on PlanOptions::time_budget_s before
  /// converging.
  bool stopped_on_budget = false;

  [[nodiscard]] const ScheduleResult& final_result() const {
    H2H_EXPECTS(!steps.empty());
    return steps.back().result;
  }
  /// The paper's baseline snapshot — the state after weight locality
  /// (step 2), looked up by snapshot name so step toggles cannot silently
  /// re-point it — or nullptr when no executed pass recorded one.
  [[nodiscard]] const ScheduleResult* find_baseline() const;
  /// As find_baseline, but a missing baseline (e.g. a step-1-only run) is a
  /// precondition violation (throws ContractViolation).
  [[nodiscard]] const ScheduleResult& baseline_result() const;
  /// final latency / baseline latency (Table 4 column 4 semantics).
  [[nodiscard]] double latency_vs_baseline() const {
    return final_result().latency / baseline_result().latency;
  }
  [[nodiscard]] double energy_vs_baseline() const {
    return final_result().energy.total() / baseline_result().energy.total();
  }
};

/// Assemble the paper's pipeline from the request toggles: seed (warm-start
/// mapping if given, computation-prioritized otherwise), then steps 2-4 as
/// enabled.
[[nodiscard]] PassPipeline make_default_pipeline(
    const PlanOptions& options, const Mapping* warm_start = nullptr);

/// Execute a pipeline on `sim`, recording a snapshot after every pass.
/// This is the one pipeline driver — Planner, plan_once, and the baseline
/// runners all route through it.
[[nodiscard]] PlanResponse run_passes(
    const Simulator& sim, const PassPipeline& pipeline,
    std::optional<double> time_budget_s = std::nullopt);

/// Builds the per-session SystemConfig for a request's BW_acc.
using SystemFactory = std::function<SystemConfig(double bw_acc)>;

struct PlannerOptions {
  /// Factory for owned per-session systems; defaults to
  /// SystemConfig::standard(bw_acc). Ignored when `shared_system` is set.
  SystemFactory system_factory;
  /// Borrow one caller-owned system for every session instead of building
  /// per-bandwidth copies (custom-accelerator setups: AcceleratorModel is
  /// move-only, so SystemConfigs cannot be copied). Sessions then follow the
  /// shared system's lazy CostTable-rebuild semantics: mutating its BW_acc
  /// invalidates the tables, which rebuild on the next request — billed to
  /// that response's setup_seconds, with warm = false. Must outlive the
  /// Planner.
  const SystemConfig* shared_system = nullptr;
  /// Session-cache capacity: one least-recently-used list, at least 1. The
  /// default holds the full paper sweep (6 models x 5 bandwidths) twice
  /// over.
  std::size_t max_sessions = 64;
};

class Planner {
 public:
  Planner();
  explicit Planner(PlannerOptions options);
  /// Convenience: borrow `shared_system` for every session.
  explicit Planner(const SystemConfig& shared_system);
  /// Rvalue systems are rejected at compile time: the Planner stores a
  /// pointer, so a temporary would dangle.
  explicit Planner(SystemConfig&&) = delete;
  ~Planner();  // out of line: Session is incomplete here

  /// Plan with the default pipeline assembled from the request. Safe to
  /// call from multiple threads concurrently.
  [[nodiscard]] PlanResponse plan(const PlanRequest& request);
  /// Plan with a caller-assembled pipeline (baseline variants, dynamic
  /// modality) over the same session cache.
  [[nodiscard]] PlanResponse plan(const PlanRequest& request,
                                  const PassPipeline& pipeline);

  /// The Simulator of the request's session, built on a miss exactly as
  /// plan() builds it (and counted as a hit or a miss alike). The pointer
  /// shares ownership of the session, so it stays valid after eviction.
  [[nodiscard]] std::shared_ptr<const Simulator> simulator(
      const PlanRequest& request);

  /// Runs `fn` on the state slot of the request's session, under the cache
  /// lock, after making that session the most recent. `fn` may read the
  /// slot or swap in a new pointer, and must do nothing else. Returns false,
  /// without calling `fn` or building anything, when the session is not
  /// cached. The slot starts empty and is dropped with its session, on
  /// eviction or clear_sessions().
  bool with_session_state(
      const PlanRequest& request,
      const std::function<void(std::shared_ptr<const void>&)>& fn);

  /// Cached sessions (exact while quiescent; a snapshot under concurrent
  /// traffic).
  [[nodiscard]] std::size_t session_count() const noexcept;
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Drop all cached sessions and their state (the next request of each
  /// key is cold). Sessions still in use by in-flight requests stay alive
  /// until those requests return.
  void clear_sessions() noexcept;

 private:
  struct Key;
  struct Session;

  [[nodiscard]] Key key_of(const PlanRequest& request) const;
  /// The cached session for `key`, made the most recent, or null. Caller
  /// holds mu_.
  [[nodiscard]] std::shared_ptr<Session> touch(const Key& key);
  [[nodiscard]] std::shared_ptr<Session> session_for(
      const PlanRequest& request, double& setup_seconds, bool& warm);

  PlannerOptions options_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Session>> lru_;  // most recent first; mu_
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// One-shot convenience: validate the model, build the cost state for
/// (model, sys), run the default pipeline once, and throw the state away.
/// Prefer a Planner anywhere a scenario repeats.
[[nodiscard]] PlanResponse plan_once(const ModelGraph& model,
                                     const SystemConfig& sys,
                                     PlanOptions options = {});

/// Structural fingerprint of a model (name, dtype, layer shapes/params,
/// edges; batch excluded — it is a separate cache-key component). Two graphs
/// with equal fingerprints are treated as the same session key.
[[nodiscard]] std::uint64_t model_fingerprint(const ModelGraph& model);

}  // namespace h2h
