#include "test_helpers.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <utility>

#include "accel/analytical_models.h"
#include "util/str.h"

namespace h2h::testing {

ModelGraph make_chain_model() {
  ModelBuilder b("chain");
  const LayerId in = b.input("in", 8, 8, 8);  // 512 elems = 1 KiB @ 2B
  const LayerId a = b.conv("convA", in, 16, 3, 1);
  const LayerId c = b.conv("convB", a, 16, 3, 2);
  (void)b.fc("fcC", c, 32);
  return std::move(b).build();
}

ModelGraph make_diamond_model() {
  ModelBuilder b("diamond");
  const LayerId in = b.input("in", 8, 16, 16);
  const LayerId a = b.conv("a", in, 16, 3, 1);
  const LayerId x = b.conv("b", a, 16, 3, 1);
  const LayerId y = b.conv("c", a, 16, 3, 1);
  const LayerId d = b.eltwise("d", x, y);
  (void)b.fc("e", d, 10);
  return std::move(b).build();
}

ModelGraph make_mini_mmmt_model() {
  ModelBuilder b("mini-mmmt");
  b.set_modality(1);
  const LayerId img = b.input("img", 3, 32, 32);
  const LayerId c1 = b.conv("m1.conv1", img, 16, 3, 2);
  const LayerId c2 = b.conv("m1.conv2", c1, 32, 3, 2);
  const LayerId g1 = b.global_pool("m1.gap", c2);

  b.set_modality(2);
  const LayerId seq = b.input_seq("seq", 16, 8);
  const LayerId l1 = b.lstm("m2.lstm", seq, 32, 1);
  const LayerId g2 = b.global_pool("m2.last", l1);

  b.set_modality(0);
  const LayerId cat = b.concat("fuse.cat", std::array{g1, g2});
  const LayerId f1 = b.fc("fuse.fc", cat, 32);
  (void)b.fc("task.a", f1, 4);
  (void)b.fc("task.b", f1, 4);
  return std::move(b).build();
}

AcceleratorSpec simple_spec(const std::string& name, Bytes dram_capacity) {
  AcceleratorSpec s;
  s.name = name;
  s.description = "uniform test accelerator";
  s.board = "test";
  s.style = DataflowStyle::MatrixEngine;
  s.kinds = KindSupport{true, true, true};
  s.peak_macs_per_cycle = 100;
  s.pe = PeArray{10, 10};
  s.freq_hz = 1e9;
  s.dram_bandwidth = 10e9;
  s.dram_capacity = dram_capacity;
  s.energy_per_mac = picojoules(1);
  s.energy_per_dram_byte = nanojoules(0.1);
  s.link_power = 1.0;
  return s;
}

SystemConfig make_uniform_system(std::size_t n, double bw_acc,
                                 Bytes dram_capacity) {
  std::vector<AcceleratorPtr> accs;
  for (std::size_t i = 0; i < n; ++i)
    accs.push_back(make_analytical(
        simple_spec(strformat("U%zu", i), dram_capacity)));
  HostParams host;
  host.bw_acc = bw_acc;
  return SystemConfig(std::move(accs), host);
}

SystemConfig make_mini_hetero_system(double bw_acc) {
  std::vector<AcceleratorPtr> accs;

  AcceleratorSpec conv = simple_spec("CONV", gib(1));
  conv.style = DataflowStyle::ChannelParallel;
  conv.kinds = KindSupport{true, false, false};
  conv.peak_macs_per_cycle = 1000;  // conv champion
  conv.pe = PeArray{32, 32};
  accs.push_back(make_analytical(std::move(conv)));

  AcceleratorSpec generic = simple_spec("GEN", gib(2));
  generic.peak_macs_per_cycle = 200;
  accs.push_back(make_analytical(std::move(generic)));

  AcceleratorSpec lstm = simple_spec("LSTM", mib(512));
  lstm.style = DataflowStyle::LstmPipeline;
  lstm.kinds = KindSupport{false, true, true};
  lstm.peak_macs_per_cycle = 500;  // recurrent champion
  lstm.pe = PeArray{25, 20};
  accs.push_back(make_analytical(std::move(lstm)));

  HostParams host;
  host.bw_acc = bw_acc;
  return SystemConfig(std::move(accs), host);
}

ModelGraph make_random_model(Rng& rng) {
  ModelBuilder b(strformat("random-%lld", static_cast<long long>(
      rng.uniform_int(0, 1 << 30))));
  // A pool of CHW-shaped layers usable as conv/pool/eltwise producers.
  std::vector<LayerId> chw;
  std::vector<LayerId> flat;

  const int n_inputs = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < n_inputs; ++i) {
    b.set_modality(static_cast<std::uint32_t>(i + 1));
    chw.push_back(b.input(strformat("in%d", i),
                          static_cast<std::uint32_t>(rng.uniform_int(1, 8)),
                          32, 32));
  }

  const int n_layers = static_cast<int>(rng.uniform_int(3, 30));
  for (int i = 0; i < n_layers; ++i) {
    b.set_modality(static_cast<std::uint32_t>(rng.uniform_int(0, n_inputs)));
    const std::string name = strformat("l%d", i);
    const int kind = static_cast<int>(rng.uniform_int(0, 5));
    switch (kind) {
      case 0: {  // conv
        const LayerId from = chw[rng.index(chw.size())];
        chw.push_back(b.conv(name, from,
                             static_cast<std::uint32_t>(rng.uniform_int(4, 64)),
                             static_cast<std::uint32_t>(rng.uniform_int(1, 5)),
                             static_cast<std::uint32_t>(rng.uniform_int(1, 2))));
        break;
      }
      case 1: {  // pool
        const LayerId from = chw[rng.index(chw.size())];
        if (b.geometry(from).h >= 2)
          chw.push_back(b.pool(name, from, 2, 2));
        break;
      }
      case 2: {  // fc from anything
        const LayerId from = rng.chance(0.5) || flat.empty()
                                 ? chw[rng.index(chw.size())]
                                 : flat[rng.index(flat.size())];
        flat.push_back(b.fc(name, from,
                            static_cast<std::uint32_t>(rng.uniform_int(4, 256))));
        break;
      }
      case 3: {  // lstm over a CHW tensor's rows
        const LayerId from = chw[rng.index(chw.size())];
        const auto seq = b.geometry(from).h;
        if (seq >= 2)
          flat.push_back(b.lstm(name, from,
                                static_cast<std::uint32_t>(rng.uniform_int(8, 64)),
                                static_cast<std::uint32_t>(rng.uniform_int(1, 2)),
                                seq));
        break;
      }
      case 4: {  // eltwise of two same-shaped tensors (derive one if needed)
        const LayerId x = chw[rng.index(chw.size())];
        const LayerId twin = b.conv(name + ".twin", x,
                                    b.geometry(x).channels, 1, 1);
        chw.push_back(b.eltwise(name, x, twin));
        break;
      }
      case 5: {  // concat of two spatially equal tensors
        const LayerId x = chw[rng.index(chw.size())];
        const LayerId twin = b.conv(name + ".twin", x,
                                    static_cast<std::uint32_t>(rng.uniform_int(4, 32)),
                                    1, 1);
        chw.push_back(b.concat(name, std::array{x, twin}));
        break;
      }
      default: break;
    }
  }
  // Guarantee at least one weighted layer so mapping is non-trivial.
  (void)b.fc("head", chw.back(), 8);
  return std::move(b).build();
}

SystemConfig make_random_system(Rng& rng) {
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  std::vector<AcceleratorPtr> accs;
  for (int i = 0; i < n; ++i) {
    AcceleratorSpec s = simple_spec(
        strformat("R%d", i),
        mib(static_cast<double>(rng.uniform_int(64, 4096))));
    const int style = static_cast<int>(rng.uniform_int(0, 7));
    s.style = static_cast<DataflowStyle>(style);
    const std::uint32_t da = static_cast<std::uint32_t>(rng.uniform_int(2, 64));
    const std::uint32_t db = static_cast<std::uint32_t>(rng.uniform_int(2, 64));
    s.pe = PeArray{da, db};
    s.peak_macs_per_cycle = da * db;
    s.freq_hz = mhz(static_cast<double>(rng.uniform_int(50, 400)));
    s.dram_bandwidth = gbps(rng.uniform_real(2.0, 20.0));
    s.energy_per_mac = picojoules(rng.uniform_real(10, 300));
    s.energy_per_dram_byte = picojoules(rng.uniform_real(50, 250));
    s.link_power = rng.uniform_real(1.0, 4.0);
    // Random support, biased by style.
    const bool lstm_style = s.style == DataflowStyle::LstmPipeline ||
                            s.style == DataflowStyle::GateParallel;
    s.kinds.conv = !lstm_style || rng.chance(0.2);
    s.kinds.fc = rng.chance(0.6);
    s.kinds.lstm = lstm_style || rng.chance(0.3);
    if (!s.kinds.conv && !s.kinds.fc && !s.kinds.lstm) s.kinds.fc = true;
    accs.push_back(make_analytical(std::move(s)));
  }
  // Guarantee full coverage with one generalist.
  accs.push_back(make_analytical(simple_spec("RGEN", gib(1))));
  HostParams host;
  host.bw_acc = gbps(rng.uniform_real(0.1, 2.0));
  return SystemConfig(std::move(accs), host);
}

Mapping reference_step1(const Simulator& sim, std::uint64_t max_candidates) {
  const ModelGraph& model = sim.model();
  const CostTable& costs = sim.costs();
  const std::size_t n_accs = sim.sys().accelerator_count();
  Mapping mapping(model);
  std::vector<bool> done(model.layer_count(), false);
  for (const LayerId id : model.all_layers())
    done[id.value] = model.layer(id).kind == LayerKind::Input;
  std::vector<double> finish(model.layer_count(), 0.0);
  std::vector<double> acc_tail(n_accs, 0.0);
  double makespan = 0.0;

  while (true) {
    std::vector<LayerId> wave;
    for (const LayerId id : model.all_layers()) {
      if (done[id.value]) continue;
      const auto preds = model.graph().preds(id);
      if (std::all_of(preds.begin(), preds.end(),
                      [&done](LayerId p) { return done[p.value]; }))
        wave.push_back(id);
    }
    if (wave.empty()) break;

    std::vector<std::vector<AccId>> cands(wave.size());
    std::vector<std::vector<double>> durs(wave.size());
    std::vector<double> ready(wave.size(), 0.0);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      for (std::uint32_t a = 0; a < n_accs; ++a) {
        if (!costs.supported(wave[i], AccId{a})) continue;
        cands[i].push_back(AccId{a});
        durs[i].push_back(costs.unlocalized_duration(wave[i], AccId{a}));
      }
      for (const LayerId p : model.graph().preds(wave[i]))
        ready[i] = std::max(ready[i], finish[p.value]);
    }

    for (std::size_t begin = 0; begin < wave.size();) {
      std::size_t end = begin;
      std::uint64_t product = 1;
      while (end < wave.size() &&
             (end == begin || product * cands[end].size() <= max_candidates))
        product *= cands[end++].size();

      std::vector<std::size_t> digit(end - begin, 0);
      std::vector<std::size_t> best;
      std::vector<double> tail;
      double best_mk = std::numeric_limits<double>::infinity();
      double best_sum = std::numeric_limits<double>::infinity();
      while (true) {
        tail.assign(acc_tail.begin(), acc_tail.end());
        double mk = makespan;
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t c = digit[i - begin];
          const AccId a = cands[i][c];
          const double fin = std::max(ready[i], tail[a.value]) + durs[i][c];
          tail[a.value] = fin;
          mk = std::max(mk, fin);
          sum += fin;
        }
        if (mk < best_mk || (mk == best_mk && sum < best_sum)) {
          best_mk = mk;
          best_sum = sum;
          best = digit;
        }
        std::size_t i = 0;
        while (i < digit.size() && ++digit[i] == cands[begin + i].size())
          digit[i++] = 0;
        if (i == digit.size()) break;
      }

      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t c = best[i - begin];
        const AccId a = cands[i][c];
        mapping.assign(wave[i], a);
        const double fin = std::max(ready[i], acc_tail[a.value]) + durs[i][c];
        acc_tail[a.value] = fin;
        finish[wave[i].value] = fin;
        makespan = std::max(makespan, fin);
        done[wave[i].value] = true;
      }
      begin = end;
    }
  }
  return mapping;
}

RemapStats reference_remap(const Simulator& sim, Mapping& mapping,
                           LocalityPlan& plan, const RemapOptions& options) {
  const ModelGraph& model = sim.model();
  const CostTable& costs = sim.costs();
  const auto objective = [&](const Mapping& m, const LocalityPlan& p) {
    const ScheduleResult r = sim.simulate(m, p);
    return options.objective == RemapObjective::Latency
               ? r.latency
               : r.latency * r.energy.total();
  };

  std::vector<LayerId> order = model.all_layers();
  std::sort(order.begin(), order.end(), [&mapping](LayerId l, LayerId r) {
    return mapping.seq_of(l) < mapping.seq_of(r);
  });

  RemapStats stats;
  double current = objective(mapping, plan);
  for (std::uint32_t pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    bool improved = false;
    for (const LayerId node : order) {
      if (model.layer(node).kind == LayerKind::Input) continue;
      if (options.locked && (*options.locked)[node.value]) continue;
      const AccId src = mapping.acc_of(node);
      std::vector<AccId> cands;
      const auto consider = [&](AccId a) {
        if (!a.valid() || a.is_host() || a == src) return;
        if (!costs.supported(node, a)) return;
        if (std::find(cands.begin(), cands.end(), a) == cands.end())
          cands.push_back(a);
      };
      for (const LayerId p : model.graph().preds(node))
        consider(mapping.acc_of(p));
      for (const LayerId s : model.graph().succs(node))
        consider(mapping.acc_of(s));
      consider(costs.affinity_acc(node));
      std::sort(cands.begin(), cands.end());

      std::optional<std::pair<Mapping, LocalityPlan>> best;
      double best_metric = current;
      for (const AccId dst : cands) {
        ++stats.attempts;
        Mapping m = mapping;
        LocalityPlan p = plan;
        m.reassign(node, dst);
        optimize_weight_locality(sim, m, p, options.weight);
        optimize_activation_fusion(sim, m, p, options.fusion);
        const double metric = objective(m, p);
        if (metric < best_metric - options.epsilon) {
          best_metric = metric;
          best.emplace(std::move(m), std::move(p));
        }
      }
      if (best) {
        mapping = std::move(best->first);
        plan = std::move(best->second);
        current = best_metric;
        ++stats.accepted;
        improved = true;
      }
    }
    if (!improved) break;
  }
  return stats;
}

std::string mapping_diff(const ModelGraph& model, const Mapping& a,
                         const Mapping& b) {
  for (const LayerId id : model.all_layers()) {
    if (a.acc_of(id) != b.acc_of(id))
      return strformat("layer %u: acc %u vs %u", id.value, a.acc_of(id).value,
                       b.acc_of(id).value);
    if (a.seq_of(id) != b.seq_of(id))
      return strformat("layer %u: seq %u vs %u", id.value, a.seq_of(id),
                       b.seq_of(id));
  }
  return {};
}

RemapComparison compare_remap_with_reference(const Simulator& sim,
                                             const Mapping& mapping,
                                             const LocalityPlan& plan,
                                             const RemapOptions& options) {
  const ModelGraph& model = sim.model();
  Mapping lib_mapping = mapping;
  LocalityPlan lib_plan = plan;
  Mapping ref_mapping = mapping;
  LocalityPlan ref_plan = plan;
  RemapComparison out;
  out.library = data_locality_remapping(sim, lib_mapping, lib_plan, options);
  const RemapStats r = reference_remap(sim, ref_mapping, ref_plan, options);

  const RemapStats& l = out.library;
  if (l.passes != r.passes || l.attempts != r.attempts ||
      l.accepted != r.accepted) {
    out.diff = strformat("passes/attempts/accepted %u/%u/%u vs %u/%u/%u",
                         l.passes, l.attempts, l.accepted, r.passes,
                         r.attempts, r.accepted);
    return out;
  }
  if (out.diff = mapping_diff(model, lib_mapping, ref_mapping);
      !out.diff.empty())
    return out;
  for (const LayerId id : model.all_layers()) {
    if (lib_plan.pinned(id) != ref_plan.pinned(id)) {
      out.diff = strformat("layer %u: pin differs", id.value);
      return out;
    }
    for (std::size_t i = 0; i < model.graph().preds(id).size(); ++i) {
      if (lib_plan.fused_in(id, i) != ref_plan.fused_in(id, i)) {
        out.diff = strformat("layer %u: fusion of in-edge %zu differs",
                             id.value, i);
        return out;
      }
    }
  }
  for (const AccId acc : sim.sys().all_accelerators()) {
    if (lib_plan.used_dram(acc) != ref_plan.used_dram(acc)) {
      out.diff = strformat("acc %u: DRAM use differs", acc.value);
      return out;
    }
  }
  const ScheduleResult a = sim.simulate(lib_mapping, lib_plan);
  const ScheduleResult b = sim.simulate(ref_mapping, ref_plan);
  if (std::bit_cast<std::uint64_t>(a.latency) !=
          std::bit_cast<std::uint64_t>(b.latency) ||
      std::bit_cast<std::uint64_t>(a.energy.total()) !=
          std::bit_cast<std::uint64_t>(b.energy.total()))
    out.diff = strformat("latency/energy %a/%a vs %a/%a", a.latency,
                         a.energy.total(), b.latency, b.energy.total());
  return out;
}

}  // namespace h2h::testing
