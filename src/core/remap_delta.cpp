#include "core/remap_delta.h"

#include <algorithm>

namespace h2h {
namespace {

/// True when succs[k] already appeared earlier in the list (parallel edges
/// list a successor once per edge; its pred slots are handled in one visit).
bool repeated_succ(std::span<const LayerId> succs, std::size_t k) {
  const auto first_k = succs.begin() + static_cast<std::ptrdiff_t>(k);
  return std::find(succs.begin(), first_k, succs[k]) != first_k;
}

}  // namespace

RemapDeltaState::RemapDeltaState(const Simulator& sim,
                                 WeightLocalityOptions weight,
                                 FusionOptions fusion)
    : sim_(&sim), weight_(std::move(weight)), fusion_(fusion) {}

void RemapDeltaState::init(const Mapping& mapping, const LocalityPlan& plan) {
  const ModelGraph& model = sim_->model();
  const CostTable& costs = sim_->costs();
  H2H_EXPECTS(mapping.complete());
  H2H_EXPECTS(!probing_);

  accs_.assign(sim_->sys().accelerator_count(), AccAggregates{});
  saved_nonneg_.resize(accs_.size());
  for (std::uint32_t a = 0; a < accs_.size(); ++a) {
    const AccId acc{a};
    // Pin value = wb/bw_host - wb/bw_local: non-negative for every item iff
    // local DRAM is at least as fast as the host link (the sane case).
    saved_nonneg_[a] = costs.bw_local(acc) >= costs.bw_host(acc) ? 1 : 0;
  }

  std::vector<std::uint8_t> zero_weight_pinned(accs_.size(), 0);
  for (const LayerId id : model.all_layers()) {
    if (costs.is_input(id)) continue;
    AccAggregates& st = accs_[mapping.acc_of(id).value];
    const Bytes wb = costs.weight_bytes(id);
    st.weight_total += wb;
    if (plan.pinned(id)) {
      st.pinned_bytes += wb;
      if (wb == 0) zero_weight_pinned[mapping.acc_of(id).value] = 1;
    }
    const auto preds = model.graph().preds(id);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const AccId pa = mapping.acc_of(preds[i]);
      if (pa != mapping.acc_of(id)) continue;  // host inputs included
      if (plan.fused_in(id, i))
        st.fused_bytes += costs.out_bytes(preds[i]);
      else
        st.saturated = true;  // conservative: first touch runs the full pass
    }
  }
  for (std::uint32_t a = 0; a < accs_.size(); ++a) {
    AccAggregates& st = accs_[a];
    st.pins_trusted =
        zero_weight_pinned[a] == 0 && st.pinned_bytes == st.weight_total;
  }
}

void RemapDeltaState::begin_probe(AccId src, AccId dst) {
  H2H_EXPECTS(!probing_);
  H2H_EXPECTS(src.value < accs_.size() && dst.value < accs_.size());
  probing_ = true;
  snap_src_ = src;
  snap_dst_ = dst;
  snap_src_state_ = accs_[src.value];
  snap_dst_state_ = accs_[dst.value];
}

void RemapDeltaState::rollback_probe() {
  H2H_EXPECTS(probing_);
  accs_[snap_src_.value] = snap_src_state_;
  accs_[snap_dst_.value] = snap_dst_state_;
  probing_ = false;
}

void RemapDeltaState::commit_probe() {
  H2H_EXPECTS(probing_);
  probing_ = false;
}

bool RemapDeltaState::weights_fit(AccId acc, Bytes weight_demand) const {
  return weight_.force_pin == nullptr && saved_nonneg_[acc.value] != 0 &&
         weight_demand <= sim_->costs().dram_capacity(acc);
}

bool RemapDeltaState::buffers_fit(AccId acc, Bytes dram_demand) const {
  return !accs_[acc.value].saturated &&
         (!fusion_.enforce_capacity ||
          dram_demand <= sim_->costs().dram_capacity(acc));
}

bool RemapDeltaState::move_is_local(LayerId node, AccId src,
                                    AccId dst) const {
  H2H_EXPECTS(!probing_);
  H2H_EXPECTS(src.value < accs_.size() && dst.value < accs_.size() &&
              src != dst);
  const CostTable& costs = sim_->costs();
  const AccAggregates& s = accs_[src.value];
  const AccAggregates& d = accs_[dst.value];
  // Upper bounds on what apply_move compares with each capacity. src only
  // loses the node's weights and buffers. dst gains the node's weights and
  // at most one buffer per incident edge: every in-edge, and the node's
  // output once per out-edge (succs lists a successor once per edge).
  const Bytes src_demand = s.weight_total + s.fused_bytes;
  const Bytes dst_demand =
      d.weight_total + costs.weight_bytes(node) + d.fused_bytes +
      costs.pred_in_bytes(node) +
      costs.out_bytes(node) * sim_->model().graph().succs(node).size();
  return s.pins_trusted && d.pins_trusted && weights_fit(src, src_demand) &&
         buffers_fit(src, src_demand) && weights_fit(dst, dst_demand) &&
         buffers_fit(dst, dst_demand);
}

void RemapDeltaState::delta_weight_one(const Mapping& mapping,
                                       LocalityPlan& plan, AccId acc,
                                       LayerId arrival) {
  const CostTable& costs = sim_->costs();
  AccAggregates& st = accs_[acc.value];
  if (weights_fit(acc, st.weight_total)) {
    // Everything-fits regime: solve_knapsack's fast path pins exactly the
    // positive-weight members. When the current pins already are that set,
    // only a layer arriving from the other accelerator needs its flag
    // written; otherwise one sweep rewrites the members to their final
    // values (still no solver).
    if (st.pins_trusted) {
      if (arrival.valid())
        plan.set_pinned(arrival, costs.weight_bytes(arrival) > 0);
    } else {
      for (const LayerId m : mapping.members(acc))
        plan.set_pinned(m, costs.weight_bytes(m) > 0);
    }
    st.pinned_bytes = st.weight_total;
    st.pins_trusted = true;
    ++stats_.trivial_weight;
    return;
  }

  // Capacity pressure (or force-pin, or a host link faster than local DRAM)
  // can change the knapsack frontier: run the full per-accelerator solve,
  // memoized — all candidate probes of one node share the src instance.
  optimize_weight_locality_acc(costs, mapping.members(acc), plan, weight_, acc,
                               weight_items_, &cache_);
  st.pinned_bytes = plan.used_dram(acc);
  st.pins_trusted = st.pinned_bytes == st.weight_total;
  ++stats_.full_weight;
}

void RemapDeltaState::delta_fusion(const Mapping& mapping, LocalityPlan& plan,
                                   LayerId node, AccId src, AccId dst) {
  const ModelGraph& model = sim_->model();
  const CostTable& costs = sim_->costs();
  AccAggregates& st_src = accs_[src.value];
  AccAggregates& st_dst = accs_[dst.value];

  // Every currently-fused edge incident to `node` had both endpoints on src
  // (fusion connects co-located layers only); the move breaks those, so the
  // unfusions are unconditional and exact.
  Bytes removed = 0;
  const auto preds = model.graph().preds(node);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (!plan.fused_in(node, i)) continue;
    plan.set_fused_in(node, i, false);
    removed += costs.out_bytes(preds[i]);
  }
  const auto succs = model.graph().succs(node);
  for (std::size_t k = 0; k < succs.size(); ++k) {
    if (repeated_succ(succs, k)) continue;
    const LayerId s = succs[k];
    const auto spreds = model.graph().preds(s);
    for (std::size_t j = 0; j < spreds.size(); ++j) {
      if (spreds[j] != node || !plan.fused_in(s, j)) continue;
      plan.set_fused_in(s, j, false);
      removed += costs.out_bytes(node);
    }
  }
  st_src.fused_bytes -= removed;

  // Node-incident edges that became co-located on dst — the only fusion
  // candidates the move creates.
  fuse_candidates_.clear();
  Bytes added = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (mapping.acc_of(preds[i]) != dst) continue;
    const Bytes bytes = costs.out_bytes(preds[i]);
    fuse_candidates_.push_back(
        EdgeRef{node, static_cast<std::uint32_t>(i), bytes});
    added += bytes;
  }
  for (std::size_t k = 0; k < succs.size(); ++k) {
    if (repeated_succ(succs, k)) continue;
    const LayerId s = succs[k];
    if (mapping.acc_of(s) != dst) continue;
    const auto spreds = model.graph().preds(s);
    for (std::size_t j = 0; j < spreds.size(); ++j) {
      if (spreds[j] != node) continue;
      const Bytes bytes = costs.out_bytes(node);
      fuse_candidates_.push_back(
          EdgeRef{s, static_cast<std::uint32_t>(j), bytes});
      added += bytes;
    }
  }

  // src: pins and demand only justify keeping the surviving co-located set
  // fused when nothing was capacity-rejected before and the (possibly
  // rewritten) pins plus the remaining buffers still fit.
  if (buffers_fit(src, st_src.pinned_bytes + st_src.fused_bytes)) {
    plan.set_used_dram(src, st_src.pinned_bytes + st_src.fused_bytes);
    ++stats_.local_fusion;
  } else {
    const FusionStats full = optimize_activation_fusion_acc(
        costs, model, mapping, mapping.members(src), plan, fusion_, src);
    st_src.fused_bytes = full.fused_bytes;
    st_src.saturated = full.rejected_for_capacity > 0;
    ++stats_.full_fusion;
  }

  // dst: the greedy walk only matches "fuse all co-located" when the whole
  // demand — old buffers plus the node's new edges — fits after the pin
  // update; otherwise the rejection order matters and the full pass decides.
  if (buffers_fit(dst, st_dst.pinned_bytes + st_dst.fused_bytes + added)) {
    for (const EdgeRef& e : fuse_candidates_)
      plan.set_fused_in(e.consumer, e.slot, true);
    st_dst.fused_bytes += added;
    plan.set_used_dram(dst, st_dst.pinned_bytes + st_dst.fused_bytes);
    ++stats_.local_fusion;
  } else {
    const FusionStats full = optimize_activation_fusion_acc(
        costs, model, mapping, mapping.members(dst), plan, fusion_, dst);
    st_dst.fused_bytes = full.fused_bytes;
    st_dst.saturated = full.rejected_for_capacity > 0;
    ++stats_.full_fusion;
  }
}

void RemapDeltaState::apply_move(const Mapping& mapping, LocalityPlan& plan,
                                 LayerId node, AccId src, AccId dst) {
  H2H_EXPECTS(probing_ && snap_src_ == src && snap_dst_ == dst);
  H2H_EXPECTS(mapping.acc_of(node) == dst);

  // Step 2 on the touched pair, src first (the order the full pass used).
  const Bytes wb = sim_->costs().weight_bytes(node);
  accs_[src.value].weight_total -= wb;
  accs_[dst.value].weight_total += wb;
  delta_weight_one(mapping, plan, src, LayerId{});
  delta_weight_one(mapping, plan, dst, node);

  // Step 3 on the touched pair.
  delta_fusion(mapping, plan, node, src, dst);
}

}  // namespace h2h
