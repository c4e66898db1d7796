// Delta evaluation of step-4 remap probes (DESIGN.md §6).
//
// A candidate move re-runs weight locality (step 2) and activation fusion
// (step 3) on the two touched accelerators. Both passes write every flag
// with its final value, so in the common case — local DRAM holds everything
// the accelerator wants — the only flags that actually change are the moved
// layer's pin and its incident fusion edges. RemapDeltaState tracks, per
// accelerator, the aggregates needed to prove that case cheaply:
//
//   weight_total   sum of member weight bytes (the knapsack's total demand)
//   pinned_bytes   sum of pinned member weight bytes (step-2 DRAM share)
//   fused_bytes    sum of fused activation-buffer bytes
//   saturated      some co-located edge is unfused (capacity bound before)
//   pins_trusted   pins are exactly the positive-weight members
//
// When the aggregates prove the knapsack stays in its everything-fits
// regime and fused buffers keep fitting, the delta pass touches only the
// moved layer and its graph neighbours — O(deg(node)) writes instead of two
// full per-accelerator passes. Whenever capacity pressure could change the
// knapsack frontier or the greedy fusion order, it falls back to the full
// per-accelerator pass (optimize_weight_locality_acc /
// optimize_activation_fusion_acc), routing knapsack solves through a
// memoizing KnapsackCache: the source-accelerator instance is identical
// across all of a node's candidate probes, so it is solved once per node.
//
// move_is_local answers, before a probe, whether the delta will stay on that
// O(deg(node)) path for a given move: both accelerators' pins are trusted
// and both everything-fits regimes hold even if the destination had to fuse
// every edge incident to the node. It is sufficient, not necessary: a move
// it turns down may still be local. The step-4 loop combines it with the
// schedule's critical chain to reject moves without probing them
// (DESIGN.md §6).
//
// Either way the resulting Mapping/LocalityPlan state is bit-identical to
// the full passes re-run from scratch (asserted by the randomized property
// tests and by the reference remap search in the tests), so the probe's
// dirty set, retimes, and metric are unchanged — only the work to get there
// shrinks. This holds under any link topology: both strategies run the same
// step-2/3 pass code, whose benefit formulas read the per-accelerator
// host-link speeds — the actual src->dst link charges live in the
// simulator, which both strategies consult identically (DESIGN.md §9).
//
// Probe protocol: the state is valid only while every pin/fusion/placement
// mutation goes through it. begin_probe snapshots the two touched
// accelerators' aggregates; rollback_probe restores them (the caller rolls
// the Mapping/LocalityPlan journals back separately); commit_probe keeps
// them. One probe at a time.
#pragma once

#include <span>

#include "core/activation_fusion.h"
#include "core/weight_locality.h"

namespace h2h {

/// Per-accelerator aggregate state (see file comment). Re-derivable from
/// (Mapping, LocalityPlan) — init() computes exactly this, which the
/// property tests exploit to cross-check the incremental maintenance.
struct AccAggregates {
  Bytes weight_total = 0;
  Bytes pinned_bytes = 0;
  Bytes fused_bytes = 0;
  bool saturated = false;
  bool pins_trusted = false;

  [[nodiscard]] bool operator==(const AccAggregates&) const = default;
};

/// Work accounting for the ablation bench and tests.
struct RemapDeltaStats {
  std::uint64_t trivial_weight = 0;  // step-2 resolved without a knapsack
  std::uint64_t full_weight = 0;     // step-2 fell back to the per-acc solve
  std::uint64_t local_fusion = 0;    // step-3 resolved on node-incident edges
  std::uint64_t full_fusion = 0;     // step-3 fell back to the per-acc pass
};

class RemapDeltaState {
 public:
  RemapDeltaState(const Simulator& sim, WeightLocalityOptions weight,
                  FusionOptions fusion);

  /// Build the aggregates from the live state: O(V + E). The mapping must be
  /// complete. Conservative about foreign state: accelerators whose pins or
  /// fusion flags do not look pass-produced simply take the full-pass
  /// fallback on their first touch.
  void init(const Mapping& mapping, const LocalityPlan& plan);

  /// Snapshot the two accelerators the upcoming move touches.
  void begin_probe(AccId src, AccId dst);
  /// Restore the snapshot taken by begin_probe (caller rolls back the
  /// Mapping/LocalityPlan journals itself).
  void rollback_probe();
  /// Keep the probe's aggregate updates.
  void commit_probe();

  /// Steps 2-3 for `node` just reassigned src -> dst (Mapping::reassign
  /// already applied). Bit-identical to running
  /// optimize_weight_locality/optimize_activation_fusion over {src, dst}.
  void apply_move(const Mapping& mapping, LocalityPlan& plan, LayerId node,
                  AccId src, AccId dst);

  /// True when apply_move for `node` (still on `src`) moving to `dst` would
  /// write pins and fusion flags only on `node` and its graph predecessors
  /// and successors: it would take the pins-trusted step-2 shortcut and the
  /// local step-3 path on both accelerators. Read from the current
  /// aggregates, outside a probe.
  [[nodiscard]] bool move_is_local(LayerId node, AccId src, AccId dst) const;

  [[nodiscard]] const AccAggregates& aggregates(AccId acc) const {
    H2H_EXPECTS(acc.value < accs_.size());
    return accs_[acc.value];
  }
  [[nodiscard]] const RemapDeltaStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t knapsack_hits() const noexcept {
    return cache_.hits();
  }
  [[nodiscard]] std::uint64_t knapsack_misses() const noexcept {
    return cache_.misses();
  }

 private:
  /// Step 2's everything-fits regime on `acc` with `weight_demand` bytes of
  /// member weights: solve_knapsack would pin exactly the positive-weight
  /// members, so no solve is needed.
  [[nodiscard]] bool weights_fit(AccId acc, Bytes weight_demand) const;
  /// Step 3's keep-everything regime on `acc`: nothing there was
  /// capacity-rejected and `dram_demand` (pins plus fused buffers) fits.
  [[nodiscard]] bool buffers_fit(AccId acc, Bytes dram_demand) const;
  void delta_weight_one(const Mapping& mapping, LocalityPlan& plan, AccId acc,
                        LayerId arrival);
  void delta_fusion(const Mapping& mapping, LocalityPlan& plan, LayerId node,
                    AccId src, AccId dst);

  const Simulator* sim_;
  WeightLocalityOptions weight_;
  FusionOptions fusion_;

  std::vector<AccAggregates> accs_;
  std::vector<std::uint8_t> saved_nonneg_;  // per acc: pin value never < 0

  // Probe snapshot (two touched accelerators).
  bool probing_ = false;
  AccId snap_src_;
  AccId snap_dst_;
  AccAggregates snap_src_state_;
  AccAggregates snap_dst_state_;

  KnapsackCache cache_;
  std::vector<KnapsackItem> weight_items_;  // scratch, reused across probes
  struct EdgeRef {
    LayerId consumer;
    std::uint32_t slot;
    Bytes bytes;
  };
  std::vector<EdgeRef> fuse_candidates_;  // scratch, reused across probes
  RemapDeltaStats stats_;
};

}  // namespace h2h
