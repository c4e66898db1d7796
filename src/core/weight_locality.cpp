#include "core/weight_locality.h"

#include <algorithm>

namespace h2h {

double optimize_weight_locality_acc(const CostTable& costs,
                                    std::span<const LayerId> members,
                                    LocalityPlan& plan,
                                    const WeightLocalityOptions& options,
                                    AccId acc, std::vector<KnapsackItem>& items,
                                    KnapsackCache* cache) {
  const double bw_host = costs.bw_host(acc);
  const double bw_local = costs.bw_local(acc);

  Bytes capacity = costs.dram_capacity(acc);
  Bytes forced_bytes = 0;
  items.clear();

  // Force-pin resident weights first; everything else competes in the
  // knapsack. Each pin flag is written exactly once with its final value —
  // no clear-then-reset — so an open plan journal records only real diffs
  // (the step-4 probe loop turns those diffs into its dirty set).
  for (const LayerId id : members) {
    const Bytes wb = costs.weight_bytes(id);
    if (wb == 0) {
      plan.set_pinned(id, false);
      continue;
    }
    if (options.force_pin != nullptr && (*options.force_pin)[id.value] &&
        forced_bytes + wb <= capacity) {
      plan.set_pinned(id, true);
      forced_bytes += wb;
      continue;
    }
    const double saved = static_cast<double>(wb) / bw_host -
                         static_cast<double>(wb) / bw_local;
    items.push_back(KnapsackItem{id.value, wb, saved});
  }

  KnapsackSolution uncached;
  const KnapsackSolution& sol =
      cache != nullptr
          ? cache->solve(items, capacity - forced_bytes, options.algo,
                         options.max_dp_units)
          : (uncached = solve_knapsack(items, capacity - forced_bytes,
                                       options.algo, options.max_dp_units));
  for (const KnapsackItem& item : items)  // sol.selected is sorted
    plan.set_pinned(LayerId{item.id},
                    std::binary_search(sol.selected.begin(),
                                       sol.selected.end(), item.id));

  plan.set_used_dram(acc, forced_bytes + sol.used);
  return sol.value;
}

double optimize_weight_locality(const Simulator& sim, const Mapping& mapping,
                                LocalityPlan& plan,
                                const WeightLocalityOptions& options,
                                std::span<const AccId> only_accs) {
  plan.ensure_acc_count(sim.sys().accelerator_count());
  const CostTable& costs = sim.costs();
  std::vector<KnapsackItem> items;
  double saved = 0;
  if (only_accs.empty()) {
    for (const AccId acc : sim.sys().all_accelerators())
      saved += optimize_weight_locality_acc(costs, mapping.members(acc), plan,
                                            options, acc, items);
  } else {
    for (const AccId acc : only_accs)
      saved += optimize_weight_locality_acc(costs, mapping.members(acc), plan,
                                            options, acc, items);
  }
  return saved;
}

}  // namespace h2h
