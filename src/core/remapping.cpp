#include "core/remapping.h"

#include <algorithm>

namespace h2h {
namespace {

/// Reusable candidate-generation state: the destination list plus an
/// epoch-stamped per-accelerator dedup array (no O(n²) membership scans, no
/// O(accs) clear per node).
struct CandidateScratch {
  std::vector<AccId> out;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
};

/// Candidate destination accelerators: the accelerators of the layer's graph
/// neighbours (paper: "re-allocates a layer ... to a new destination
/// accelerator, on which its predecessors and/or successors are mapped"),
/// plus the layer's compute-affinity accelerator — precomputed in the cost
/// table, it depends only on costs, not the mapping. The extra candidate
/// un-strands layers whose step-1 placement turns memory-bound once weights
/// are pinned but whose neighbours all share that placement (DESIGN.md §6).
/// Support checks are cost-table reads — no virtual model calls in the loop.
/// Fills the scratch's out vector (sorted ascending for determinism).
void neighbour_accs(const CostTable& costs, const ModelGraph& model,
                    const Mapping& mapping, LayerId node,
                    CandidateScratch& scratch) {
  const AccId current = mapping.acc_of(node);
  scratch.out.clear();
  if (scratch.stamp.size() < costs.acc_count())
    scratch.stamp.resize(costs.acc_count(), 0);
  if (++scratch.epoch == 0) {  // epoch wrapped: invalidate all stale stamps
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0u);
    scratch.epoch = 1;
  }
  const auto consider = [&](AccId a) {
    if (a.is_host() || a == current) return;
    if (scratch.stamp[a.value] == scratch.epoch) return;
    scratch.stamp[a.value] = scratch.epoch;
    if (costs.supported(node, a)) scratch.out.push_back(a);
  };
  for (const LayerId p : model.graph().preds(node))
    consider(mapping.acc_of(p));
  for (const LayerId s : model.graph().succs(node))
    consider(mapping.acc_of(s));
  if (const AccId best = costs.affinity_acc(node); best.valid())
    consider(best);
  std::sort(scratch.out.begin(), scratch.out.end());
}

}  // namespace

RemapStats data_locality_remapping(const Simulator& sim, Mapping& mapping,
                                   LocalityPlan& plan,
                                   const RemapOptions& options) {
  const ModelGraph& model = sim.model();
  const CostTable& costs = sim.costs();
  RemapStats stats;

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  RemapDeltaState delta(sim, options.weight, options.fusion);
  delta.init(mapping, plan);

  // Apply one candidate move with steps 2-3 re-run on the two affected
  // accelerators as a delta over the moved layer and its neighbours, and
  // collect the schedule's dirty set. Requires open journals: the plan
  // journal doubles as the exact dirty set for the schedule update (only
  // layers whose pins or fusion flags flipped get their components
  // re-read).
  std::vector<LayerId> dirty;  // scratch, reused across probes
  // One steps-2/3 implementation for probes and accepted applies: the
  // acceptance path must reproduce the probed state exactly, so the two
  // call sites may not drift apart.
  const auto run_steps23 = [&](LayerId node, AccId src, AccId dst) {
    mapping.reassign(node, dst);
    delta.apply_move(mapping, plan, node, src, dst);
    dirty.clear();
    plan.journal_touched_layers(model, dirty);
    // Non-uniform topology: the node's unfused successors read their
    // in-edge over a different link after the move, even when their own
    // plan state did not flip — include them in the dirty set (the refresh
    // dedups by stamp, so overlap with journal-touched layers is free).
    // Gated so the uniform path keeps the legacy dirty set and retime
    // counts bit-identical.
    if (!costs.uniform_links())
      for (const LayerId s : model.graph().succs(node)) dirty.push_back(s);
  };

  const auto export_work_stats = [&]() {
    stats.retimes = inc.retime_count();
    stats.knapsack_hits = delta.knapsack_hits();
    stats.knapsack_misses = delta.knapsack_misses();
    stats.delta_full_passes =
        delta.stats().full_weight + delta.stats().full_fusion;
  };

  // Objective value of the starting state. The Latency objective reads the
  // maintained makespan directly; the energy-aware objective aggregates
  // energy without materializing a full ScheduleResult.
  double best_metric = options.objective == RemapObjective::Latency
                           ? inc.latency()
                           : inc.latency() * inc.energy(mapping).total();
  // Under the Latency objective a probe may stop at the committed critical
  // chain: it returns +infinity only when its makespan is >= the committed
  // one (== best_metric >= best_candidate), which a non-negative epsilon
  // rejects anyway. EDP needs the whole overlay for probe_energy.
  const bool cut_probes = options.objective == RemapObjective::Latency &&
                          options.epsilon >= 0.0;

  // Visit layers in execution order each pass.
  std::vector<LayerId> order = model.all_layers();
  std::sort(order.begin(), order.end(), [&mapping](LayerId l, LayerId r) {
    return mapping.seq_of(l) < mapping.seq_of(r);
  });

  CandidateScratch candidates;  // reused across nodes

  for (std::uint32_t pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    bool improved = false;

    for (const LayerId node : order) {
      // Budgeted search: one clock read per layer (not per probe) keeps the
      // check off the candidate hot path; no clock read at all when no
      // deadline is set, so unbudgeted runs are bit-identical to before.
      if (options.deadline &&
          std::chrono::steady_clock::now() >= *options.deadline) {
        stats.stopped_on_budget = true;
        export_work_stats();
        return stats;
      }
      if (model.layer(node).kind == LayerKind::Input) continue;
      if (options.locked && (*options.locked)[node.value]) continue;
      const AccId src = mapping.acc_of(node);
      neighbour_accs(costs, model, mapping, node, candidates);

      // Probe every neighbour destination under the mapping/plan journals —
      // no per-candidate copies — and remember only the best improving
      // destination. The schedule itself is never touched by a probe: the
      // candidate makespan is evaluated into IncrementalSchedule's overlay
      // (probe_remap), so a rejected candidate needs no schedule journal or
      // rollback at all.
      AccId best_dst{};
      double best_candidate = best_metric;

      for (const AccId dst : candidates.out) {
        ++stats.attempts;
        mapping.begin_journal();
        plan.begin_journal();
        delta.begin_probe(src, dst);

        run_steps23(node, src, dst);
        const double lat =
            inc.probe_remap(mapping, plan, node, src, dirty, cut_probes);
        const double metric = options.objective == RemapObjective::Latency
                                  ? lat
                                  : lat * inc.probe_energy(mapping).total();
        if (metric < best_candidate - options.epsilon) {
          best_candidate = metric;
          best_dst = dst;
        }

        delta.rollback_probe();
        plan.rollback_journal();
        mapping.rollback_journal();
      }

      if (best_dst.valid()) {
        // Apply the winning move for keeps (journaled for the dirty-set
        // bookkeeping, then committed; the schedule applies directly — its
        // journal is not needed when nothing rolls back). Steps 2-3 are
        // deterministic, so this reproduces the probed state exactly (the
        // knapsack cache hands the re-apply its solves for free).
        mapping.begin_journal();
        plan.begin_journal();
        delta.begin_probe(src, best_dst);
        run_steps23(node, src, best_dst);
        inc.apply_remap(mapping, plan, node, src, dirty);
        delta.commit_probe();
        plan.commit_journal();
        mapping.commit_journal();
        best_metric = best_candidate;
        ++stats.accepted;
        improved = true;
      }
    }

    if (!improved) break;
  }
  export_work_stats();
  return stats;
}

}  // namespace h2h
