// Incremental schedule maintenance.
//
// The paper stresses that after a locality or remapping change "we only
// update a node's direct successor neighbours without traversing the entire
// graph". This class keeps per-accelerator FIFO queues and per-layer timing,
// and re-times only the affected cone: a forward sweep in execution
// sequence propagates through graph successors and queue followers, stopping
// wherever a finish time is unchanged.
//
// Probe/undo: the step-4 remapping loop evaluates hundreds of candidate
// moves per pass. Instead of deep-copying the schedule per candidate, an
// apply/undo journal records every touched timing and queue move while open
// (begin_journal) and rolls them back in O(touched) (rollback_journal). The
// journal buffers, the seq-indexed retime stamps, and the dedup stamps are
// all reused members, so steady-state candidate evaluation allocates nothing
// here.
//
// Critical-chain cut: the class also keeps one critical chain of the
// committed schedule, rebuilt lazily after a committed change. A probe that
// asks for the cut stops its sweep at the first chain layer beyond every
// refreshed layer that does not finish earlier, since from there on the
// makespan cannot shrink (see probe_remap and DESIGN.md §6).
//
// Equivalence with Simulator::simulate is asserted in tests (the step-4
// reference search re-simulates every probe from scratch).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "system/simulator.h"

namespace h2h {

class IncrementalSchedule {
 public:
  explicit IncrementalSchedule(const Simulator& sim) noexcept : sim_(&sim) {}

  /// Full (re)build for a complete mapping: O(V + E). Not allowed while a
  /// journal is open.
  void reset(const Mapping& m, const LocalityPlan& plan);

  /// The plan changed the transfer components of `dirty` layers (pins or
  /// fusion flags); accelerator placement is unchanged. Re-times the
  /// affected cone only.
  void refresh_components(const Mapping& m, const LocalityPlan& plan,
                          std::span<const LayerId> dirty);

  /// `node` was re-assigned (Mapping::reassign already applied) from
  /// `old_acc` to its new accelerator. Moves it between the FIFO queues and
  /// re-times the affected cone. `dirty` lists exactly the layers whose
  /// transfer components may have changed (typically
  /// LocalityPlan::journal_touched_layers, plus the node's successors on
  /// non-uniform links). Only those components are re-read; the displaced
  /// queue followers are re-timed regardless. The moved node is always
  /// refreshed and need not appear in `dirty`.
  void apply_remap(const Mapping& m, const LocalityPlan& plan, LayerId node,
                   AccId old_acc, std::span<const LayerId> dirty);

  /// Candidate evaluation without mutating the schedule: returns the
  /// makespan apply_remap(m, plan, node, old_acc, dirty) would produce.
  /// `m`/`plan` already hold the probed move (their own journals handle the
  /// rollback); the committed timings and queues here stay untouched — new
  /// times go to an epoch-stamped overlay, and the moved node's queue
  /// placement is resolved by O(1) effective-neighbour adjustments instead
  /// of list surgery. The sweep mirrors retime() visit for visit, so the
  /// returned makespan is bit-identical to applying and reading latency();
  /// a rejected candidate then costs no schedule journal, no queue moves,
  /// and no rollback (the step-4 loop's common case).
  ///
  /// With `cut` set, the sweep may stop early and return +infinity instead:
  /// it does so at the first committed critical-chain layer beyond every
  /// refreshed layer (the anchors) that does not finish earlier in the
  /// probe. Anchors keep their durations and chain edges, so no later chain
  /// layer finishes earlier either and the probed makespan is >= latency().
  /// +infinity therefore means "not shorter than the committed makespan";
  /// any finite return is the exact makespan, as without the cut. After a
  /// cut the overlay is partial, so probe_energy may not be called.
  [[nodiscard]] double probe_remap(const Mapping& m, const LocalityPlan& plan,
                                   LayerId node, AccId old_acc,
                                   std::span<const LayerId> dirty,
                                   bool cut = false);

  /// Energy of the overlay state left by the last probe_remap (same
  /// accumulation order as energy(), overlay-patched timings). Valid until
  /// the next probe_remap/apply/reset, and only after a probe that was not
  /// cut.
  [[nodiscard]] EnergyBreakdown probe_energy(const Mapping& m) const;

  /// Start recording timing and queue changes. One journal at a time.
  void begin_journal();
  /// Undo every change since begin_journal — saved timings restored, queue
  /// moves reversed — and close the journal. O(touched). The retime work
  /// counter is not rolled back (it measures work performed).
  void rollback_journal();
  /// Keep the changes and close the journal.
  void commit_journal();
  [[nodiscard]] bool journal_open() const noexcept { return journaling_; }

  /// Current makespan. Finish times are monotone along each FIFO queue, so
  /// this reads each queue's last element: O(accelerators), which keeps the
  /// per-probe metric read off the O(V) path.
  [[nodiscard]] double latency() const noexcept;
  [[nodiscard]] const LayerTiming& timing(LayerId id) const {
    H2H_EXPECTS(id.value < timings_.size());
    return timings_[id.value];
  }

  /// Aggregate into a full ScheduleResult (energy, ratios): O(V).
  [[nodiscard]] ScheduleResult result(const Mapping& m) const;

  /// Energy alone, without materializing the O(V) timings copy a full
  /// ScheduleResult carries: the allocation-free probe path for
  /// energy-aware objectives.
  [[nodiscard]] EnergyBreakdown energy(const Mapping& m) const;

  /// Number of node re-timings performed since construction (for the
  /// ablation bench's work accounting). A cut probe counts only the visits
  /// made before the cut.
  [[nodiscard]] std::uint64_t retime_count() const noexcept { return retimes_; }

 private:
  void save_timing(LayerId id);
  /// Journaled queue surgery; returns the old queue's displaced follower.
  LayerId relocate(const Mapping& m, LayerId node, AccId old_acc);
  void refresh_one(const Mapping& m, const LocalityPlan& plan, LayerId id);
  void begin_retime();
  void enqueue(LayerId id);
  void retime();
  [[nodiscard]] LayerId queue_prev(LayerId id) const;
  [[nodiscard]] LayerId queue_next(LayerId id) const;

  // Overlay-probe internals (see probe_remap). cur() is the probe's view of
  // a timing: the overlay entry when this epoch touched it, the committed
  // one otherwise. eff_queue_prev/next resolve FIFO neighbours as if the
  // probed node had been moved, without editing the queues.
  [[nodiscard]] const LayerTiming& cur(LayerId id) const {
    return ov_stamp_[id.value] == probe_epoch_ ? ov_timings_[id.value]
                                               : timings_[id.value];
  }
  [[nodiscard]] LayerTiming& overlay(LayerId id);
  [[nodiscard]] LayerId eff_queue_prev(LayerId id) const;
  [[nodiscard]] LayerId eff_queue_next(LayerId id) const;
  void probe_refresh(const Mapping& m, const LocalityPlan& plan, LayerId id);
  /// Returns true when the sweep stopped at an anchor (see probe_remap).
  bool probe_retime(bool cut);
  void rebuild_chain();

  const Simulator* sim_;
  std::vector<LayerTiming> timings_;
  std::vector<std::vector<LayerId>> queues_;  // per accelerator, seq-sorted
  std::vector<std::uint32_t> pos_;            // node -> index in its queue
  std::vector<AccId> acc_;                    // node -> accelerator (cache)
  std::vector<std::uint32_t> seq_;            // node -> seq (cache; immutable)
  std::vector<LayerId> by_seq_;               // seq -> node (seqs are dense)
  std::uint64_t retimes_ = 0;

  // Reusable retime worklist. Processing is a monotone forward sweep over
  // execution sequence: a node only ever enqueues graph successors and its
  // queue follower, both with strictly larger seq, so pending membership is
  // a seq-indexed stamp array walked from the smallest seeded seq — a store
  // per enqueue and a load per visit, no heap. Visit order (ascending seq)
  // is exactly what the min-heap produced, so results are bit-identical.
  // The stamps also dedup per-batch component refreshes without an O(V)
  // clear per probe.
  std::vector<std::uint32_t> pending_stamp_;  // keyed by seq
  std::vector<std::uint32_t> refreshed_stamp_;
  std::uint32_t stamp_ = 0;
  std::uint32_t sweep_min_ = 0;  // seq range holding pending work
  std::uint32_t sweep_max_ = 0;

  // Probe overlay (see probe_remap): shadow timings activated per node by an
  // epoch stamp, plus the probed move's parameters. probe_ins_ is the index
  // the node would take in the destination queue.
  std::vector<LayerTiming> ov_timings_;
  std::vector<std::uint32_t> ov_stamp_;
  std::uint32_t probe_epoch_ = 0;
  LayerId probe_node_;
  AccId probe_new_acc_;
  std::uint32_t probe_ins_ = 0;
  LayerId probe_old_prev_;
  LayerId probe_old_next_;
  std::uint32_t probe_refreshed_max_ = 0;  // largest seq probe_refresh saw
  bool probe_cut_ = false;                 // the last probe stopped early

  // One critical chain of the committed schedule as ascending seqs: from the
  // latest-finishing queue tail back through queue or graph predecessors
  // whose finish equals the layer's start. Every committed change marks it
  // stale; the next cutting probe rebuilds it.
  std::vector<std::uint32_t> chain_;
  bool chain_stale_ = true;

  // Journal. Timings are saved once per (journal, node) via an epoch stamp;
  // queue moves record enough to reverse the surgery exactly.
  struct QueueMove {
    LayerId node;
    AccId old_acc;
    std::uint32_t old_pos;
    AccId new_acc;
  };
  bool journaling_ = false;
  std::vector<std::pair<LayerId, LayerTiming>> journal_timings_;
  std::vector<QueueMove> journal_moves_;
  std::vector<std::uint32_t> saved_stamp_;
  std::uint32_t save_epoch_ = 0;
};

}  // namespace h2h
