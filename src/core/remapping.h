// Step 4 — data-locality-aware remapping (paper §4.4).
//
// For every layer, attempt to re-allocate it to an accelerator hosting one
// of its graph neighbours; re-run weight locality (step 2) and activation
// fusion (step 3) for the two affected accelerators; accept iff the overall
// objective strictly decreases. Passes repeat until a fixed point (or
// max_passes). Termination is guaranteed by the strict-decrease acceptance.
//
// Candidate evaluation is delta-first (DESIGN.md §6): each probe applies the
// move against the live Mapping/LocalityPlan under their apply/undo journals
// — with the steps-2/3 re-run computed as a delta over the moved layer and
// its neighbours (RemapDeltaState), falling back to the per-accelerator
// pass only under capacity pressure — and reads the candidate makespan from
// IncrementalSchedule's overlay probe, which leaves the committed schedule
// untouched. A rejected candidate therefore costs no deep copies, no
// schedule journal, and no queue surgery (the paper's sub-second search
// times depend on this; see bench_ablation_remap_probe). Under the Latency
// objective a probe also stops its retime sweep at the committed critical
// chain once the makespan provably cannot shrink, and a move is rejected
// without any probe when neither the layer nor a graph neighbour lies on
// that chain and its steps 2-3 provably stay on the layer's neighbourhood.
// Neither changes a decision (DESIGN.md §6). The tests check this loop
// against a copy-and-resimulate reference search bit for bit.
#pragma once

#include <chrono>
#include <optional>

#include "core/remap_delta.h"
#include "system/incremental.h"

namespace h2h {

/// What the greedy loop minimizes. The paper uses latency; the
/// energy-delay-product option is our extension for energy-constrained
/// deployments (swept by bench_ablation_objective).
enum class RemapObjective { Latency, EnergyDelayProduct };

struct RemapOptions {
  std::uint32_t max_passes = 32;
  /// Minimum objective improvement to accept a move (same unit as the
  /// objective: seconds, or joule-seconds for EDP).
  double epsilon = 1e-12;
  RemapObjective objective = RemapObjective::Latency;
  WeightLocalityOptions weight;
  FusionOptions fusion;
  /// Optional per-layer freeze mask, indexed by LayerId::value (size must be
  /// >= the model's layer count when set). Locked layers are never probed
  /// for a move — the multi-tenant co-mapper pins peer tenants' layers while
  /// replanning one tenant. nullptr freezes nothing (the single-tenant hot
  /// path is unchanged and bit-identical).
  const std::vector<bool>* locked = nullptr;
  /// Optional wall-clock deadline (PlanRequest::time_budget_s): the loop
  /// stops cleanly — current state kept, stopped_on_budget reported — at the
  /// first per-layer check past the deadline. nullopt runs to convergence;
  /// the check is skipped entirely then, so the unbudgeted hot path is
  /// unchanged.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

struct RemapStats {
  std::uint32_t passes = 0;
  /// Candidate moves decided, whether probed or rejected without a probe
  /// (DESIGN.md §6), so it matches the reference search's count. Under the
  /// latency objective about half of them run no probe. The benchmark's
  /// remapping.probes reads this count, and remapping.us_per_probe divides
  /// step-4 time by it, so that reads below the cost of one probe.
  std::uint32_t attempts = 0;
  std::uint32_t accepted = 0;
  /// Node re-timings the incremental schedule performed across all probes
  /// and accepted moves — the bench's work accounting. A probe the
  /// critical-chain cut stops counts only the visits made before the cut,
  /// and a move rejected without a probe counts none, so readings from
  /// before either and after it do not compare.
  std::uint64_t retimes = 0;
  /// Knapsack-cache accounting: solver runs avoided / paid on the delta
  /// path's full-pass fallbacks (the source-accelerator instance repeats
  /// across all candidates of one node, so it is solved once per node).
  std::uint64_t knapsack_hits = 0;
  std::uint64_t knapsack_misses = 0;
  /// Per-accelerator full-pass fallbacks taken by the delta evaluation
  /// (steps 2 and 3 counted separately; see RemapDeltaStats).
  std::uint64_t delta_full_passes = 0;
  /// True when the loop stopped on RemapOptions::deadline before reaching a
  /// fixed point (Fig. 5b budgeted-search reporting).
  bool stopped_on_budget = false;
};

/// Runs the remapping loop in place on `mapping`/`plan` (which must already
/// have steps 2-3 applied). Returns loop statistics.
RemapStats data_locality_remapping(const Simulator& sim, Mapping& mapping,
                                   LocalityPlan& plan,
                                   const RemapOptions& options = {});

}  // namespace h2h
