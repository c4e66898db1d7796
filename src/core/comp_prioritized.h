// Step 1 — computation-prioritized mapping (paper §4.1).
//
// Iteratively take the frontier ("all the nodes without predecessors" among
// unmapped layers), enumerate every frontier -> accelerator assignment, and
// commit the one with the smallest system-latency increment. Zero data
// locality is assumed: every layer's weights and activations cross the host
// link, so the choice is driven by compute affinity and queue serialization.
// Waves come from an indegree-counting FrontierWorklist (O(V + E) total) and
// per-candidate durations are cost-table reads — no per-query model
// evaluation.
//
// Enumeration is exact while the candidate product stays within
// `max_candidates`; larger frontiers are split into deterministic chunks
// mapped greedily in sequence. The enumeration itself is a lex-order DFS
// with incremental accelerator tails: subtrees are cut by a
// makespan-lower-bound check and the last chunk position is scored as one
// batched sweep (DESIGN.md §10). Ties beyond (makespan, finish-sum) keep
// the assignment a mixed-radix enumeration reaches first — the
// colexicographically smallest choice vector (see comp_prioritized.cpp;
// tests check it against a brute-force reference).
#pragma once

#include <functional>
#include <optional>

#include "system/simulator.h"

namespace h2h {

/// Work accounting of one computation_prioritized_mapping run (benches and
/// tests; zero cost when no sink is attached).
struct CompPrioritizedStats {
  std::uint64_t waves = 0;
  std::uint64_t chunks = 0;
  /// Complete assignments scored against the incumbent.
  std::uint64_t evaluated = 0;
  /// Subtrees cut because even their lower bound lost on makespan.
  std::uint64_t bound_pruned = 0;
  /// Always 0. The dominance table that filled this counter was removed
  /// (it pruned nothing on the zoo models); the field stays because the
  /// repository benchmark (perfbench/) still reports it.
  std::uint64_t dominance_pruned = 0;
};

struct CompPrioritizedOptions {
  /// Upper bound on enumerated assignments per frontier chunk.
  std::uint64_t max_candidates = 200000;
  /// Optional placement preference (dynamic-modality extension §4.5): if it
  /// returns an accelerator that supports the layer, that accelerator is the
  /// only candidate considered.
  std::function<std::optional<AccId>(LayerId)> preferred;
  /// Optional work-accounting sink.
  CompPrioritizedStats* stats = nullptr;
};

/// Produce a complete mapping (and execution sequence) for the model.
/// Throws ConfigError if some layer kind is supported by no accelerator.
[[nodiscard]] Mapping computation_prioritized_mapping(
    const Simulator& sim, const CompPrioritizedOptions& options = {});

}  // namespace h2h
