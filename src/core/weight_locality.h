// Step 2 — weight locality optimization (paper §4.2).
//
// For each accelerator, a knapsack selects which of its layers' weights to
// pin in local DRAM (capacity M_acc): item weight = weight bytes, item value
// = host-transfer time saved per inference (bytes/BW_acc - bytes/BW_dram).
// The plan's pin flags and per-accelerator DRAM usage are updated; fusion
// flags are left untouched (step 3 runs after this pass and re-checks
// remaining capacity).
//
// Non-uniform link topologies: weights always stage over the accelerator's
// host link, so bw_host(acc) — the topology's per-accelerator host-link
// speed — keeps the item values exact. Only the (unmodeled here) per-hop
// latency term makes the value a heuristic under hierarchical fabrics; the
// simulator remains the single source of truth for the objective
// (DESIGN.md §9).
#pragma once

#include <functional>
#include <span>

#include "core/knapsack.h"
#include "system/simulator.h"

namespace h2h {

struct WeightLocalityOptions {
  KnapsackAlgo algo = KnapsackAlgo::ExactDp;
  std::uint32_t max_dp_units = 4096;
  /// Optional per-layer force-pin flags (dynamic-modality extension §4.5:
  /// weights already resident on the accelerator are pinned first, before
  /// the knapsack distributes the remaining capacity).
  const std::vector<bool>* force_pin = nullptr;
};

/// Recompute weight pins. If `only_accs` is empty all accelerators are
/// re-optimized; otherwise only the listed ones (step-4 inner loop).
/// Returns the total saved host-transfer seconds (sum of selected values).
double optimize_weight_locality(const Simulator& sim, const Mapping& mapping,
                                LocalityPlan& plan,
                                const WeightLocalityOptions& options = {},
                                std::span<const AccId> only_accs = {});

/// Single-accelerator pass over an explicit member list (`members` must be
/// Mapping::members(acc)). This is the unit the full pass iterates and the
/// step-4 delta evaluation falls back to when capacity pressure changes the
/// knapsack frontier (DESIGN.md §6). `items` is caller-owned scratch, so the
/// step-4 probe loop allocates nothing per call. When `cache` is non-null
/// the knapsack solve is memoized through it — exact-match memoization, so
/// the resulting pins/DRAM state is bit-identical either way. Returns the
/// saved host-transfer seconds on this accelerator.
double optimize_weight_locality_acc(const CostTable& costs,
                                    std::span<const LayerId> members,
                                    LocalityPlan& plan,
                                    const WeightLocalityOptions& options,
                                    AccId acc, std::vector<KnapsackItem>& items,
                                    KnapsackCache* cache = nullptr);

}  // namespace h2h
