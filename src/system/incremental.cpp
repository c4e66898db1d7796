#include "system/incremental.h"

#include <algorithm>
#include <limits>

namespace h2h {

namespace {
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;
// Overlay stamp value no probe epoch ever takes (see reset/probe_remap).
constexpr std::uint32_t kOverlaySentinel = 0xFFFFFFFFu;
}  // namespace

void IncrementalSchedule::reset(const Mapping& m, const LocalityPlan& plan) {
  const ModelGraph& model = sim_->model();
  const SystemConfig& sys = sim_->sys();
  H2H_EXPECTS(m.complete());
  H2H_EXPECTS(!journaling_);

  timings_.assign(model.layer_count(), LayerTiming{});
  queues_ = m.acc_queues(sys);
  pos_.assign(model.layer_count(), kNoPos);
  acc_.assign(model.layer_count(), AccId{});
  for (std::uint32_t q = 0; q < queues_.size(); ++q) {
    for (std::uint32_t i = 0; i < queues_[q].size(); ++i) {
      pos_[queues_[q][i].value] = i;
      acc_[queues_[q][i].value] = AccId{q};
    }
  }
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind == LayerKind::Input) acc_[id.value] = AccId::host();
  }
  pending_stamp_.assign(model.layer_count(), 0);
  refreshed_stamp_.assign(model.layer_count(), 0);
  stamp_ = 0;
  saved_stamp_.assign(model.layer_count(), 0);
  save_epoch_ = 0;
  ov_timings_.assign(model.layer_count(), LayerTiming{});
  // Sentinel stamp: until the first probe_remap bumps probe_epoch_ past 0,
  // no entry may match, so cur() reads committed timings only (the epoch
  // counter skips the sentinel on wrap-around for the same reason).
  ov_stamp_.assign(model.layer_count(), kOverlaySentinel);
  probe_epoch_ = 0;
  probe_cut_ = false;
  chain_stale_ = true;

  // Sequence numbers of a complete mapping are dense in [0, V) and never
  // change after assignment (reassign keeps them); cache them flat and
  // invert them once so the retime sweep can walk nodes in execution order
  // by index without per-access contract checks.
  seq_.assign(model.layer_count(), 0);
  by_seq_.assign(model.layer_count(), LayerId{});
  for (const LayerId id : model.all_layers()) {
    seq_[id.value] = m.seq_of(id);
    H2H_ASSERT(seq_[id.value] < by_seq_.size() &&
               !by_seq_[seq_[id.value]].valid());
    by_seq_[seq_[id.value]] = id;
  }

  // Initial full timing in sequence order.
  std::vector<double> acc_free(sys.accelerator_count(), 0.0);
  for (const LayerId id : by_seq_) {
    LayerTiming t = sim_->layer_components(id, m, plan);
    if (!acc_[id.value].is_host()) {
      double ready = 0.0;
      for (const LayerId p : model.graph().preds(id))
        ready = std::max(ready, timings_[p.value].finish);
      t.start = std::max(ready, acc_free[acc_[id.value].value]);
      t.finish = t.start + t.duration();
      acc_free[acc_[id.value].value] = t.finish;
    }
    timings_[id.value] = t;
  }
}

LayerId IncrementalSchedule::queue_prev(LayerId id) const {
  const AccId a = acc_[id.value];
  if (a.is_host()) return LayerId{};
  const std::uint32_t p = pos_[id.value];
  return p == 0 ? LayerId{} : queues_[a.value][p - 1];
}

LayerId IncrementalSchedule::queue_next(LayerId id) const {
  const AccId a = acc_[id.value];
  if (a.is_host()) return LayerId{};
  const std::uint32_t p = pos_[id.value];
  const auto& q = queues_[a.value];
  return p + 1 < q.size() ? q[p + 1] : LayerId{};
}

void IncrementalSchedule::save_timing(LayerId id) {
  if (!journaling_ || saved_stamp_[id.value] == save_epoch_) return;
  saved_stamp_[id.value] = save_epoch_;
  journal_timings_.emplace_back(id, timings_[id.value]);
}

void IncrementalSchedule::begin_retime() {
  sweep_min_ = 0xFFFFFFFFu;
  sweep_max_ = 0;
  if (++stamp_ == 0) {  // stamp wrapped: invalidate all stale marks
    std::fill(pending_stamp_.begin(), pending_stamp_.end(), 0u);
    std::fill(refreshed_stamp_.begin(), refreshed_stamp_.end(), 0u);
    stamp_ = 1;
  }
}

void IncrementalSchedule::enqueue(LayerId id) {
  // Host-resident layers (the Inputs) never re-time; acc_ is the cached
  // placement, so no model or mapping dereference on this path.
  if (!id.valid() || acc_[id.value].is_host()) return;
  const std::uint32_t seq = seq_[id.value];
  if (pending_stamp_[seq] == stamp_) return;
  pending_stamp_[seq] = stamp_;
  sweep_min_ = std::min(sweep_min_, seq);
  sweep_max_ = std::max(sweep_max_, seq);
}

void IncrementalSchedule::retime() {
  const ModelGraph& model = sim_->model();
  // Monotone sweep in execution order (see the member comment): everything a
  // visited node enqueues lies ahead of the cursor, so one forward walk over
  // the pending range visits each node at most once, in exactly the
  // ascending-seq order the old min-heap produced.
  for (std::uint32_t s = sweep_min_; s <= sweep_max_; ++s) {
    if (pending_stamp_[s] != stamp_) continue;
    const LayerId id = by_seq_[s];
    ++retimes_;

    LayerTiming& t = timings_[id.value];
    double ready = 0.0;
    for (const LayerId p : model.graph().preds(id))
      ready = std::max(ready, timings_[p.value].finish);
    const LayerId prev = queue_prev(id);
    const double free_at = prev.valid() ? timings_[prev.value].finish : 0.0;
    const double start = std::max(ready, free_at);
    const double finish = start + t.duration();
    if (start == t.start && finish == t.finish) continue;  // cone stops here
    save_timing(id);
    t.start = start;
    t.finish = finish;
    for (const LayerId y : model.graph().succs(id)) enqueue(y);
    enqueue(queue_next(id));
  }
}

void IncrementalSchedule::refresh_one(const Mapping& m,
                                      const LocalityPlan& plan, LayerId id) {
  if (refreshed_stamp_[id.value] == stamp_) return;  // already this batch
  refreshed_stamp_[id.value] = stamp_;
  save_timing(id);
  LayerTiming& t = timings_[id.value];
  const LayerTiming fresh = sim_->layer_components(id, m, plan);
  t.t_in = fresh.t_in;
  t.t_weight = fresh.t_weight;
  t.t_compute = fresh.t_compute;
  t.t_out = fresh.t_out;
  t.t_host = fresh.t_host;
  t.t_local = fresh.t_local;
  t.host_bytes = fresh.host_bytes;
  t.local_bytes = fresh.local_bytes;
  enqueue(id);
}

void IncrementalSchedule::refresh_components(const Mapping& m,
                                             const LocalityPlan& plan,
                                             std::span<const LayerId> dirty) {
  if (dirty.empty()) return;  // nothing changed: skip the retime setup too
  begin_retime();
  for (const LayerId id : dirty) refresh_one(m, plan, id);
  retime();
  chain_stale_ = true;
}

LayerId IncrementalSchedule::relocate(const Mapping& m, LayerId node,
                                      AccId old_acc) {
  H2H_EXPECTS(!old_acc.is_host() && old_acc.value < queues_.size());
  const AccId new_acc = m.acc_of(node);
  H2H_EXPECTS(new_acc != old_acc);

  // Remove from the old queue.
  auto& oq = queues_[old_acc.value];
  const std::uint32_t old_pos = pos_[node.value];
  H2H_ASSERT(old_pos < oq.size() && oq[old_pos] == node);
  if (journaling_) journal_moves_.push_back({node, old_acc, old_pos, new_acc});
  oq.erase(oq.begin() + old_pos);
  for (std::uint32_t i = old_pos; i < oq.size(); ++i) pos_[oq[i].value] = i;
  const LayerId old_follower = old_pos < oq.size() ? oq[old_pos] : LayerId{};

  // Insert into the new queue by sequence.
  auto& nq = queues_[new_acc.value];
  const auto it = std::lower_bound(
      nq.begin(), nq.end(), node, [this](LayerId lhs, LayerId rhs) {
        return seq_[lhs.value] < seq_[rhs.value];
      });
  const auto new_pos = static_cast<std::uint32_t>(it - nq.begin());
  nq.insert(it, node);
  for (std::uint32_t i = new_pos; i < nq.size(); ++i) pos_[nq[i].value] = i;
  acc_[node.value] = new_acc;
  return old_follower;
}

void IncrementalSchedule::apply_remap(const Mapping& m,
                                      const LocalityPlan& plan, LayerId node,
                                      AccId old_acc,
                                      std::span<const LayerId> dirty) {
  const LayerId old_follower = relocate(m, node, old_acc);

  begin_retime();
  refresh_one(m, plan, node);
  for (const LayerId id : dirty) refresh_one(m, plan, id);
  // The displaced FIFO slots: components unchanged, start times may not be.
  enqueue(old_follower);
  enqueue(queue_next(node));
  retime();
  chain_stale_ = true;
}

LayerTiming& IncrementalSchedule::overlay(LayerId id) {
  if (ov_stamp_[id.value] != probe_epoch_) {  // copy-on-first-touch
    ov_timings_[id.value] = timings_[id.value];
    ov_stamp_[id.value] = probe_epoch_;
  }
  return ov_timings_[id.value];
}

LayerId IncrementalSchedule::eff_queue_prev(LayerId id) const {
  if (id == probe_node_) {
    const auto& q = queues_[probe_new_acc_.value];
    return probe_ins_ == 0 ? LayerId{} : q[probe_ins_ - 1];
  }
  const AccId a = acc_[id.value];
  if (a.is_host()) return LayerId{};
  const std::uint32_t p = pos_[id.value];
  LayerId prev = p == 0 ? LayerId{} : queues_[a.value][p - 1];
  if (prev == probe_node_) {
    // The node left this (its old) queue; its own predecessor takes over.
    prev = probe_old_prev_;
  } else if (a == probe_new_acc_ && probe_ins_ == p) {
    prev = probe_node_;  // the node lands directly before id
  }
  return prev;
}

LayerId IncrementalSchedule::eff_queue_next(LayerId id) const {
  if (id == probe_node_) {
    const auto& q = queues_[probe_new_acc_.value];
    return probe_ins_ < q.size() ? q[probe_ins_] : LayerId{};
  }
  const AccId a = acc_[id.value];
  if (a.is_host()) return LayerId{};
  const std::uint32_t p = pos_[id.value];
  const auto& q = queues_[a.value];
  LayerId next = p + 1 < q.size() ? q[p + 1] : LayerId{};
  if (next == probe_node_) {
    next = probe_old_next_;
  } else if (a == probe_new_acc_ && probe_ins_ == p + 1) {
    next = probe_node_;  // the node lands directly after id
  }
  return next;
}

void IncrementalSchedule::probe_refresh(const Mapping& m,
                                        const LocalityPlan& plan, LayerId id) {
  // Mirrors refresh_one, writing the overlay instead of the journaled state.
  if (refreshed_stamp_[id.value] == stamp_) return;  // already this batch
  refreshed_stamp_[id.value] = stamp_;
  probe_refreshed_max_ = std::max(probe_refreshed_max_, seq_[id.value]);
  LayerTiming& t = overlay(id);
  const LayerTiming fresh = sim_->layer_components(id, m, plan);
  t.t_in = fresh.t_in;
  t.t_weight = fresh.t_weight;
  t.t_compute = fresh.t_compute;
  t.t_out = fresh.t_out;
  t.t_host = fresh.t_host;
  t.t_local = fresh.t_local;
  t.host_bytes = fresh.host_bytes;
  t.local_bytes = fresh.local_bytes;
  enqueue(id);
}

bool IncrementalSchedule::probe_retime(bool cut) {
  const ModelGraph& model = sim_->model();
  // The anchors: chain layers past every refreshed layer. Without the cut
  // the cursor starts past the chain and the sweep runs to the end.
  std::size_t anchor = chain_.size();
  if (cut)
    anchor = static_cast<std::size_t>(
        std::upper_bound(chain_.begin(), chain_.end(), probe_refreshed_max_) -
        chain_.begin());
  // Mirrors retime() — same sweep, same seeds, same comparisons — against
  // the overlay view, so the probe's arithmetic is bit-identical to
  // applying the move (pinned by the property tests).
  for (std::uint32_t s = sweep_min_; s <= sweep_max_; ++s) {
    if (pending_stamp_[s] != stamp_) continue;
    // An anchor behind the cursor is final. If it does not finish earlier
    // than committed, neither does any chain layer after it (same
    // durations, same chain edges, monotone max and +), so the makespan
    // cannot shrink: stop.
    for (; anchor < chain_.size() && chain_[anchor] < s; ++anchor) {
      const LayerId c = by_seq_[chain_[anchor]];
      if (!(cur(c).finish < timings_[c.value].finish)) return true;
    }
    const LayerId id = by_seq_[s];
    ++retimes_;

    const LayerTiming& base = cur(id);
    double ready = 0.0;
    for (const LayerId p : model.graph().preds(id))
      ready = std::max(ready, cur(p).finish);
    const LayerId prev = eff_queue_prev(id);
    const double free_at = prev.valid() ? cur(prev).finish : 0.0;
    const double start = std::max(ready, free_at);
    const double finish = start + base.duration();
    if (start == base.start && finish == base.finish) continue;
    LayerTiming& t = overlay(id);
    t.start = start;
    t.finish = finish;
    for (const LayerId y : model.graph().succs(id)) enqueue(y);
    enqueue(eff_queue_next(id));
  }
  return false;
}

void IncrementalSchedule::rebuild_chain() {
  chain_.clear();
  chain_stale_ = false;
  LayerId x{};
  for (const auto& q : queues_) {
    if (q.empty()) continue;
    const LayerId tail = q.back();
    if (!x.valid() || timings_[tail.value].finish > timings_[x.value].finish)
      x = tail;
  }
  // start = max(ready, free) exactly, so some queue or graph predecessor's
  // finish equals a started layer's start; the walk ends at a start of 0 or
  // where that predecessor is a host input.
  while (x.valid()) {
    chain_.push_back(seq_[x.value]);
    const double start = timings_[x.value].start;
    if (start == 0.0) break;
    LayerId next = queue_prev(x);
    if (!next.valid() || timings_[next.value].finish != start) {
      next = LayerId{};
      for (const LayerId p : sim_->model().graph().preds(x)) {
        if (!acc_[p.value].is_host() && timings_[p.value].finish == start) {
          next = p;
          break;
        }
      }
    }
    x = next;
  }
  std::reverse(chain_.begin(), chain_.end());
}

double IncrementalSchedule::probe_remap(const Mapping& m,
                                        const LocalityPlan& plan, LayerId node,
                                        AccId old_acc,
                                        std::span<const LayerId> dirty,
                                        bool cut) {
  const AccId new_acc = m.acc_of(node);
  H2H_EXPECTS(!old_acc.is_host() && old_acc.value < queues_.size());
  H2H_EXPECTS(new_acc != old_acc && !new_acc.is_host());
  H2H_EXPECTS(acc_[node.value] == old_acc);  // schedule still holds old state

  if (++probe_epoch_ == kOverlaySentinel) {  // wrap: invalidate stale marks
    std::fill(ov_stamp_.begin(), ov_stamp_.end(), kOverlaySentinel);
    probe_epoch_ = 1;
  }
  probe_node_ = node;
  probe_new_acc_ = new_acc;
  const auto& nq = queues_[new_acc.value];
  probe_ins_ = static_cast<std::uint32_t>(
      std::lower_bound(nq.begin(), nq.end(), node,
                       [this](LayerId lhs, LayerId rhs) {
                         return seq_[lhs.value] < seq_[rhs.value];
                       }) -
      nq.begin());
  // The node's neighbours in the queue it (virtually) leaves, resolved once
  // so the sweep's eff_queue_prev/next calls are plain loads.
  const auto& oq = queues_[old_acc.value];
  const std::uint32_t np = pos_[node.value];
  probe_old_prev_ = np == 0 ? LayerId{} : oq[np - 1];
  probe_old_next_ = np + 1 < oq.size() ? oq[np + 1] : LayerId{};

  // Same seeds as apply_remap: the node, the explicit dirty set, and the
  // two displaced FIFO followers.
  begin_retime();
  probe_refreshed_max_ = 0;
  probe_refresh(m, plan, node);
  for (const LayerId id : dirty) probe_refresh(m, plan, id);
  enqueue(queue_next(node));      // old queue's follower (node still listed)
  enqueue(eff_queue_next(node));  // new queue's follower
  if (cut && chain_stale_) rebuild_chain();
  probe_cut_ = probe_retime(cut);
  if (probe_cut_) return std::numeric_limits<double>::infinity();

  // Makespan: per-queue finishes stay monotone, so only the last effective
  // element of each queue matters; the moved node shifts at most which
  // element that is on its two queues.
  double out = 0.0;
  for (std::uint32_t a = 0; a < queues_.size(); ++a) {
    const auto& q = queues_[a];
    LayerId last = q.empty() ? LayerId{} : q.back();
    if (AccId{a} == old_acc && last == node)
      last = q.size() >= 2 ? q[q.size() - 2] : LayerId{};
    else if (AccId{a} == new_acc && probe_ins_ == q.size())
      last = node;
    if (last.valid()) out = std::max(out, cur(last).finish);
  }
  return out;
}

EnergyBreakdown IncrementalSchedule::probe_energy(const Mapping& m) const {
  H2H_EXPECTS(!probe_cut_);  // a cut probe leaves the overlay partial
  const ModelGraph& model = sim_->model();
  EnergyBreakdown e;
  double latency = 0.0;
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind == LayerKind::Input) continue;
    const LayerTiming& t = cur(id);
    e += sim_->layer_energy(id, m, t);
    latency = std::max(latency, t.finish);
  }
  e.static_power = sim_->sys().static_energy(latency);
  return e;
}

void IncrementalSchedule::begin_journal() {
  H2H_EXPECTS(!journaling_);
  H2H_EXPECTS(!timings_.empty());  // reset() must have run
  journal_timings_.clear();
  journal_moves_.clear();
  if (++save_epoch_ == 0) {  // epoch wrapped: invalidate all stale marks
    std::fill(saved_stamp_.begin(), saved_stamp_.end(), 0u);
    save_epoch_ = 1;
  }
  journaling_ = true;
}

void IncrementalSchedule::rollback_journal() {
  H2H_EXPECTS(journaling_);
  // Reverse the queue surgery, newest move first.
  for (auto it = journal_moves_.rbegin(); it != journal_moves_.rend(); ++it) {
    auto& nq = queues_[it->new_acc.value];
    const std::uint32_t cur = pos_[it->node.value];
    H2H_ASSERT(cur < nq.size() && nq[cur] == it->node);
    nq.erase(nq.begin() + cur);
    for (std::uint32_t i = cur; i < nq.size(); ++i) pos_[nq[i].value] = i;
    auto& oq = queues_[it->old_acc.value];
    oq.insert(oq.begin() + it->old_pos, it->node);
    for (std::uint32_t i = it->old_pos; i < oq.size(); ++i)
      pos_[oq[i].value] = i;
    acc_[it->node.value] = it->old_acc;
  }
  // Restore saved timings (each node saved once; order is irrelevant).
  for (const auto& [id, t] : journal_timings_) timings_[id.value] = t;
  journal_timings_.clear();
  journal_moves_.clear();
  journaling_ = false;
  chain_stale_ = true;
}

void IncrementalSchedule::commit_journal() {
  H2H_EXPECTS(journaling_);
  journal_timings_.clear();
  journal_moves_.clear();
  journaling_ = false;
}

double IncrementalSchedule::latency() const noexcept {
  // Along one FIFO queue each layer starts no earlier than its predecessor's
  // finish, so finishes are monotone and the queue's last element carries
  // the accelerator's makespan; host-resident inputs finish at 0.
  double out = 0.0;
  for (const auto& q : queues_)
    if (!q.empty()) out = std::max(out, timings_[q.back().value].finish);
  return out;
}

EnergyBreakdown IncrementalSchedule::energy(const Mapping& m) const {
  const ModelGraph& model = sim_->model();
  EnergyBreakdown e;
  double latency = 0.0;
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind == LayerKind::Input) continue;
    const LayerTiming& t = timings_[id.value];
    e += sim_->layer_energy(id, m, t);
    latency = std::max(latency, t.finish);
  }
  e.static_power = sim_->sys().static_energy(latency);
  return e;
}

ScheduleResult IncrementalSchedule::result(const Mapping& m) const {
  const ModelGraph& model = sim_->model();
  ScheduleResult r;
  r.timings = timings_;
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind == LayerKind::Input) continue;
    const LayerTiming& t = timings_[id.value];
    r.comp_time += t.t_compute;
    r.local_time += t.t_local;
    r.host_time += t.t_host;
    r.host_bytes += t.host_bytes;
    r.local_bytes += t.local_bytes;
    r.energy += sim_->layer_energy(id, m, t);
    r.latency = std::max(r.latency, t.finish);
  }
  r.energy.static_power = sim_->sys().static_energy(r.latency);
  return r;
}

}  // namespace h2h
