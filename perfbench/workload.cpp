#include "workload.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "serve/json.h"
#include "util/rng.h"
#include "util/str.h"

namespace perfbench {
namespace {

using h2h::ZooModel;
namespace json = h2h::json;

constexpr std::array<std::pair<Workload, std::string_view>, 3> kNames{{
    {Workload::Fig5bSweep, "fig5b-sweep"},
    {Workload::ServeWarm, "serve-warm"},
    {Workload::ServeCold, "serve-cold"},
}};

/// Request shares of one serve mix, in percent of all requests. Plans pick
/// among the six zoo models; repair chains count all three of their lines.
struct Mix {
  std::array<std::pair<ZooModel, double>, 6> plans;
  double tenants;
  double chains;
};

constexpr Mix kWarmMix{{{{ZooModel::CasiaSurf, 25},
                         {ZooModel::FaceBag, 20},
                         {ZooModel::Vfs, 15},
                         {ZooModel::VLocNet, 10},
                         {ZooModel::CnnLstm, 10},
                         {ZooModel::MoCap, 10}}},
                       5,
                       5};

constexpr Mix kColdMix{{{{ZooModel::CasiaSurf, 30},
                         {ZooModel::FaceBag, 20},
                         {ZooModel::Vfs, 12},
                         {ZooModel::VLocNet, 8},
                         {ZooModel::CnnLstm, 8},
                         {ZooModel::MoCap, 8}}},
                       6,
                       8};

/// Repair chains run on the two small models: their responses stay under
/// 4 KiB, so chains never add stalled lines to either mix.
constexpr std::array<ZooModel, 2> kChainModels{ZooModel::MoCap,
                                               ZooModel::CnnLstm};

[[nodiscard]] std::string_view model_key(ZooModel m) {
  return h2h::zoo_info(m).key;
}

[[nodiscard]] double setting_gbps(std::size_t setting) {
  return h2h::bandwidth_value(h2h::all_bandwidth_settings()[setting]) / 1e9;
}

/// Accelerators in the standard catalog: the range repair events draw from.
[[nodiscard]] std::size_t catalog_accelerators() {
  static const std::size_t n =
      h2h::SystemConfig::standard(0.5e9).accelerator_count();
  return n;
}

[[nodiscard]] std::size_t model_index(ZooModel m) {
  const auto catalog = h2h::zoo_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].id == m) return i;
  }
  return 0;
}

/// The multi-tenant set pinned by ci/serve_fixtures.
[[nodiscard]] json::Array fixture_tenants() {
  const auto tenant = [](const char* name, const char* model, double slo,
                         unsigned priority) {
    json::Object t;
    t.set("name", name);
    t.set("model", model);
    t.set("slo_s", slo);
    t.set("priority", priority);
    return json::Value(std::move(t));
  };
  return {tenant("cam", "casia-surf", 0.012, 3),
          tenant("act", "cnn-lstm", 0.010, 2),
          tenant("emo", "mocap", 0.010, 1)};
}

[[nodiscard]] json::Object emit(bool mapping, bool steps) {
  json::Object e;
  e.set("mapping", mapping);
  e.set("steps", steps);
  return e;
}

/// A session key: where a request lands in the server's caches.
struct Key {
  ZooModel model = ZooModel::MoCap;
  double gbps = 0.5;
  std::uint32_t batch = 1;
  bool links = false;  // spelled as a uniform "links" object, not bw_gbps

  [[nodiscard]] std::string text() const {
    return h2h::strformat("%s|%.17g|b%u|%s", model_key(model).data(), gbps,
                          batch, links ? "links" : "bw");
  }
  void put(json::Object& root) const {
    root.set("model", model_key(model));
    if (links) {
      json::Object l;
      l.set("shape", "uniform");
      l.set("bw_gbps", gbps);
      root.set("links", std::move(l));
    } else {
      root.set("bw_gbps", gbps);
    }
    if (batch != 1) root.set("batch", batch);
  }
};

[[nodiscard]] json::Object header(const std::string& id) {
  json::Object root;
  root.set("schema_version", 1);
  root.set("id", id);
  return root;
}

[[nodiscard]] WireLine finish(json::Object root, std::string id,
                              std::string cls, std::string key) {
  WireLine w;
  w.line = json::dump(json::Value(std::move(root)));
  w.id = std::move(id);
  w.cls = std::move(cls);
  w.key = std::move(key);
  return w;
}

[[nodiscard]] WireLine plan_line(const std::string& id, const Key& key,
                                 bool summary) {
  json::Object root = header(id);
  key.put(root);
  if (summary) root.set("emit", emit(false, false));
  return finish(std::move(root), id,
                "plan:" + std::string(model_key(key.model)), key.text());
}

[[nodiscard]] WireLine tenants_line(const std::string& id, double gbps,
                                    bool summary) {
  json::Object root = header(id);
  root.set("tenants", fixture_tenants());
  root.set("bw_gbps", gbps);
  if (summary) {
    json::Object e;
    e.set("mapping", false);
    root.set("emit", std::move(e));
  }
  return finish(std::move(root), id, "tenants",
                h2h::strformat("tenants|%.17g", gbps));
}

[[nodiscard]] WireLine repair_line(const std::string& id, const Key& key,
                                   const char* event, unsigned acc,
                                   bool summary) {
  json::Object root = header(id);
  json::Object r;
  r.set("event", event);
  r.set("acc", acc);
  root.set("repair", std::move(r));
  key.put(root);
  if (summary) {
    json::Object e;
    e.set("mapping", false);
    root.set("emit", std::move(e));
  }
  return finish(std::move(root), id, std::string("repair:") + event,
                key.text());
}

/// What one position of a connection's stream holds before ids are given.
enum class UnitKind { Plan, Tenants, Chain };
struct Unit {
  UnitKind kind = UnitKind::Plan;
  ZooModel model = ZooModel::MoCap;
  std::size_t setting = 0;  // Fig. 5b bandwidth position
};

/// The units of one connection: exact per-class counts (largest-remainder
/// rounding), each class cycling through the five bandwidths, shuffled.
/// Exact counts keep every run's class and cell shares equal, so p50/p99
/// stay inside the same class from seed to seed.
[[nodiscard]] std::vector<Unit> connection_units(const Mix& mix,
                                                 std::size_t requests,
                                                 h2h::Rng& rng) {
  const auto chains = static_cast<std::size_t>(
      std::lround(static_cast<double>(requests) * mix.chains / 300.0));
  const auto tenants = static_cast<std::size_t>(
      std::lround(static_cast<double>(requests) * mix.tenants / 100.0));
  const std::size_t plans = requests - 3 * chains - tenants;

  double plan_share = 0;
  for (const auto& [model, share] : mix.plans) plan_share += share;
  std::array<std::size_t, 6> counts{};
  std::array<double, 6> remainder{};
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double exact =
        static_cast<double>(plans) * mix.plans[i].second / plan_share;
    counts[i] = static_cast<std::size_t>(exact);
    remainder[i] = exact - static_cast<double>(counts[i]);
    assigned += counts[i];
  }
  while (assigned < plans) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < counts.size(); ++i) {
      if (remainder[i] > remainder[best]) best = i;
    }
    ++counts[best];
    remainder[best] = -1;
    ++assigned;
  }

  const std::size_t settings = h2h::all_bandwidth_settings().size();
  std::vector<Unit> units;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (std::size_t k = 0; k < counts[i]; ++k) {
      units.push_back({UnitKind::Plan, mix.plans[i].first, k % settings});
    }
  }
  for (std::size_t k = 0; k < tenants; ++k) {
    units.push_back({UnitKind::Tenants, ZooModel::MoCap, k % settings});
  }
  for (std::size_t k = 0; k < chains; ++k) {
    units.push_back(
        {UnitKind::Chain, kChainModels[k % 2], (k / 2) % settings});
  }
  for (std::size_t i = units.size(); i > 1; --i) {
    std::swap(units[i - 1], units[rng.index(i)]);
  }
  return units;
}

[[nodiscard]] std::string line_id(std::size_t conn, std::size_t i) {
  return h2h::strformat("c%zu-%zu", conn, i);
}

void append_chain(std::vector<WireLine>& out, std::size_t conn,
                  const Key& key, unsigned acc, int chain, bool summary) {
  WireLine plan = plan_line(line_id(conn, out.size()), key, summary);
  plan.chain = chain;
  out.push_back(std::move(plan));
  for (const char* event : {"acc_lost", "acc_returned"}) {
    WireLine r = repair_line(line_id(conn, out.size()), key, event, acc,
                             summary);
    r.chain = chain;
    out.push_back(std::move(r));
  }
}

/// serve-warm: every key is one the set-up primed. Plans spread over the
/// 30 Fig. 5b cells, tenants over the five bandwidths; chains use a batch
/// size per connection (2 + connection) that nothing else sends.
[[nodiscard]] ServeStream warm_stream(std::uint64_t seed,
                                      std::size_t requests) {
  constexpr std::size_t kConnections = 2;
  const std::size_t settings = h2h::all_bandwidth_settings().size();
  h2h::Rng rng(seed);
  ServeStream s;

  for (std::size_t c = 0; c < fig5b_cells().size(); ++c) {
    const Cell& cell = fig5b_cells()[c];
    WireLine w = plan_line(
        h2h::strformat("s%zu", s.setup.size()),
        Key{cell.model, h2h::bandwidth_value(cell.bw) / 1e9, 1, false}, true);
    w.cell = static_cast<int>(c);
    s.setup.push_back(std::move(w));
  }
  for (std::size_t conn = 0; conn < kConnections; ++conn) {
    for (const ZooModel m : kChainModels) {
      for (std::size_t b = 0; b < settings; ++b) {
        s.setup.push_back(plan_line(
            h2h::strformat("s%zu", s.setup.size()),
            Key{m, setting_gbps(b), static_cast<std::uint32_t>(2 + conn),
                false},
            true));
      }
    }
  }
  for (std::size_t b = 0; b < settings; ++b) {
    s.setup.push_back(tenants_line(h2h::strformat("s%zu", s.setup.size()),
                                   setting_gbps(b), true));
  }

  int chain = 0;
  for (std::size_t conn = 0; conn < kConnections; ++conn) {
    const std::size_t n =
        requests / kConnections + (conn < requests % kConnections ? 1 : 0);
    std::vector<WireLine>& out = s.connections.emplace_back();
    for (const Unit& u : connection_units(kWarmMix, n, rng)) {
      const std::size_t b = u.setting;
      if (u.kind == UnitKind::Plan) {
        WireLine w = plan_line(line_id(conn, out.size()),
                               Key{u.model, setting_gbps(b), 1, false}, false);
        w.cell = static_cast<int>(model_index(u.model) * settings + b);
        out.push_back(std::move(w));
      } else if (u.kind == UnitKind::Tenants) {
        out.push_back(
            tenants_line(line_id(conn, out.size()), setting_gbps(b), false));
      } else {
        const Key key{u.model, setting_gbps(b),
                      static_cast<std::uint32_t>(2 + conn), false};
        const auto acc =
            static_cast<unsigned>(rng.index(catalog_accelerators()));
        append_chain(out, conn, key, acc, chain++, false);
      }
    }
  }
  return s;
}

/// serve-cold: one connection, and every key is new to the server. A key
/// is made fresh by perturbing a Fig. 5b bandwidth by a unique relative
/// 1e-7 step — the plan's work stays that of its cell, while the session
/// cache sees a bandwidth it has never built. Half of the plans spell the
/// bandwidth as a uniform "links" override (a distinct key, identical
/// work); repair chains also carry a batch size of 2-4. The stream is a
/// run of kSegmentRequests-line blocks, each with the mix's exact class
/// counts, so every measured segment sends the same mix.
[[nodiscard]] ServeStream cold_stream(std::uint64_t seed,
                                      std::size_t requests) {
  const std::size_t settings = h2h::all_bandwidth_settings().size();
  h2h::Rng rng(seed);
  ServeStream s;
  std::vector<WireLine>& out = s.connections.emplace_back();
  std::uint64_t fresh = 0;
  const auto fresh_gbps = [&](std::size_t b) {
    return setting_gbps(b) * (1.0 + 1e-7 * static_cast<double>(++fresh));
  };
  int chain = 0;
  while (out.size() < requests) {
    const std::size_t block = std::min(kSegmentRequests, requests - out.size());
    for (const Unit& u : connection_units(kColdMix, block, rng)) {
      const std::size_t b = u.setting;
      if (u.kind == UnitKind::Plan) {
        const bool links = rng.index(2) == 1;
        WireLine w = plan_line(line_id(0, out.size()),
                               Key{u.model, fresh_gbps(b), 1, links}, true);
        w.cell = static_cast<int>(model_index(u.model) * settings + b);
        out.push_back(std::move(w));
      } else if (u.kind == UnitKind::Tenants) {
        out.push_back(
            tenants_line(line_id(0, out.size()), fresh_gbps(b), true));
      } else {
        const Key key{u.model, fresh_gbps(b),
                      static_cast<std::uint32_t>(2 + rng.index(3)), false};
        const auto acc =
            static_cast<unsigned>(rng.index(catalog_accelerators()));
        append_chain(out, 0, key, acc, chain++, true);
      }
    }
  }
  return s;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto& [w, n] : kNames) {
    if (n == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  for (const auto& [id, n] : kNames) {
    if (id == w) return n;
  }
  return "?";
}

const std::vector<Cell>& fig5b_cells() {
  static const std::vector<Cell> cells = [] {
    std::vector<Cell> out;
    for (const h2h::ZooInfo& info : h2h::zoo_catalog()) {
      for (const h2h::BandwidthSetting bw : h2h::all_bandwidth_settings()) {
        out.push_back({info.id, bw});
      }
    }
    return out;
  }();
  return cells;
}

std::vector<std::size_t> fig5b_round_order(std::uint64_t seed,
                                           std::uint64_t round) {
  // Independent stream per (seed, round): SplitMix64-style mixing.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + round + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  h2h::Rng rng(z ^ (z >> 31));
  std::vector<std::size_t> order(fig5b_cells().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  return order;
}

std::size_t serve_request_count(Workload w, int seconds) {
  // Sized on a 4-vCPU x86 VM: serve-warm answers ~30 requests/s while
  // responses over 4 KiB stall, serve-cold ~1,000/s. Floors keep >= 10
  // samples beyond p99; serve-cold sends whole segments.
  const auto s = static_cast<std::size_t>(seconds < 1 ? 1 : seconds);
  if (w == Workload::ServeWarm) return std::max<std::size_t>(1000, 50 * s);
  return kSegmentRequests * ((s + 1) / 2);
}

ServeStream make_serve_stream(Workload w, std::uint64_t seed,
                              std::size_t requests) {
  return w == Workload::ServeWarm ? warm_stream(seed, requests)
                                  : cold_stream(seed, requests);
}

}  // namespace perfbench
