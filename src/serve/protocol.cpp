#include "serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>
#include <vector>

#include "accel/capability.h"
#include "serve/json.h"
#include "util/error.h"
#include "util/str.h"
#include "util/units.h"

namespace h2h::serve {
namespace {

constexpr std::uint32_t kMaxBatch = 4096;
constexpr std::uint32_t kMaxRounds = 64;
// Co-mapping time grows steeply with the tenant count, so one request line
// may not ask for more tenants than this.
constexpr std::size_t kMaxTenants = 8;

[[nodiscard]] std::string known_zoo_keys() {
  std::string keys;
  for (const ZooInfo& info : zoo_catalog()) {
    if (!keys.empty()) keys += ", ";
    keys += info.key;
  }
  return keys;
}

/// Canonical-string -> JSON value for one option row (inverse of the string
/// conversion parse_options does). Unset options return null.
[[nodiscard]] json::Value option_value(const PlanOptionSpec& spec,
                                       const PlanOptions& options) {
  const std::string v = spec.get(options);
  if (v.empty()) return json::Value(nullptr);
  switch (spec.kind) {
    case PlanOptionSpec::Kind::Bool:
      return json::Value(v == "true");
    case PlanOptionSpec::Kind::Double: {
      double d = 0;
      const auto [ptr, ec] =
          std::from_chars(v.data(), v.data() + v.size(), d);
      H2H_ASSERT(ec == std::errc() && ptr == v.data() + v.size());
      return json::Value(d);
    }
    case PlanOptionSpec::Kind::Enum:
      return json::Value(v);
  }
  H2H_ASSERT(false);
  return json::Value(nullptr);
}

/// parse_links_object result: a topology, or (code, error) on failure.
struct LinksParse {
  std::optional<Interconnect> links;
  ErrorCode code = ErrorCode::BadField;
  std::string error;  // empty = success
};

/// Parse the request's "links" object (schema in protocol.h). Strict like
/// the rest of the wire: unknown fields are rejected, every value is
/// type-checked, and Interconnect's own validation errors surface as
/// bad_field.
[[nodiscard]] LinksParse parse_links_object(const json::Object& obj) {
  LinksParse out;
  const auto fail = [&out](ErrorCode code, std::string message) {
    out.code = code;
    out.error = std::move(message);
    return out;
  };

  const json::Value* shape = obj.find("shape");
  if (shape == nullptr || !shape->is_string()) {
    return fail(ErrorCode::BadField,
                "links.shape: expected \"uniform\", \"mixed\", or "
                "\"hierarchical\" (required)");
  }
  const std::string& kind = shape->as_string();

  std::vector<std::string_view> allowed{"shape"};
  if (kind == "uniform") {
    allowed.insert(allowed.end(), {"bw_gbps"});
  } else if (kind == "mixed") {
    allowed.insert(allowed.end(), {"bw_gbps", "overrides"});
  } else if (kind == "hierarchical") {
    allowed.insert(allowed.end(), {"group_size", "intra_gbps", "uplink_gbps",
                                   "host_gbps", "hop_latency_us"});
  } else {
    return fail(ErrorCode::BadField,
                strformat("links.shape: unknown shape '%s'", kind.c_str()));
  }
  for (const json::Object::Member& m : obj.members()) {
    if (std::find(allowed.begin(), allowed.end(), m.key) == allowed.end()) {
      return fail(ErrorCode::UnknownField,
                  strformat("links.%s: unknown field for shape %s",
                            m.key.c_str(), kind.c_str()));
    }
  }

  // Required/optional positive numbers, spelled in GB/s on the wire.
  const auto number = [&obj](std::string_view key, bool required,
                             double fallback, double& dst) -> std::string {
    const json::Value* v = obj.find(key);
    if (v == nullptr) {
      if (required)
        return strformat("links.%.*s: required for this shape",
                         static_cast<int>(key.size()), key.data());
      dst = fallback;
      return {};
    }
    if (!v->is_number())
      return strformat("links.%.*s: expected a number",
                       static_cast<int>(key.size()), key.data());
    dst = v->as_number();
    return {};
  };

  try {
    if (kind == "uniform") {
      double bw = 0;
      if (std::string err = number("bw_gbps", true, 0, bw); !err.empty())
        return fail(ErrorCode::BadField, std::move(err));
      out.links = Interconnect::uniform(gbps(bw));
    } else if (kind == "mixed") {
      double bw = 0;
      if (std::string err = number("bw_gbps", true, 0, bw); !err.empty())
        return fail(ErrorCode::BadField, std::move(err));
      std::vector<Interconnect::Override> overrides;
      if (const json::Value* ov = obj.find("overrides")) {
        if (!ov->is_array())
          return fail(ErrorCode::BadField,
                      "links.overrides: expected an array");
        for (const json::Value& entry : ov->as_array()) {
          if (!entry.is_object())
            return fail(ErrorCode::BadField,
                        "links.overrides: expected objects with acc, bw_gbps");
          const json::Object& e = entry.as_object();
          for (const json::Object::Member& m : e.members()) {
            if (m.key != "acc" && m.key != "bw_gbps") {
              return fail(ErrorCode::UnknownField,
                          strformat("links.overrides.%s: unknown field",
                                    m.key.c_str()));
            }
          }
          const json::Value* acc = e.find("acc");
          const json::Value* obw = e.find("bw_gbps");
          if (acc == nullptr || !acc->is_number() ||
              acc->as_number() < 0 ||
              acc->as_number() != std::floor(acc->as_number())) {
            return fail(ErrorCode::BadField,
                        "links.overrides.acc: expected a non-negative "
                        "integer (required)");
          }
          if (obw == nullptr || !obw->is_number()) {
            return fail(ErrorCode::BadField,
                        "links.overrides.bw_gbps: expected a number "
                        "(required)");
          }
          overrides.emplace_back(static_cast<std::uint32_t>(acc->as_number()),
                                 gbps(obw->as_number()));
        }
      }
      out.links = Interconnect::mixed(gbps(bw), std::move(overrides));
    } else {
      const json::Value* group = obj.find("group_size");
      if (group == nullptr || !group->is_number() ||
          group->as_number() < 1 ||
          group->as_number() != std::floor(group->as_number())) {
        return fail(ErrorCode::BadField,
                    "links.group_size: expected a positive integer "
                    "(required)");
      }
      Interconnect::HierarchicalSpec spec;
      spec.group_size = static_cast<std::uint32_t>(group->as_number());
      double intra = 0, uplink = 0, host = 0, lat_us = 0;
      for (std::string err :
           {number("intra_gbps", true, 0, intra),
            number("uplink_gbps", true, 0, uplink),
            number("host_gbps", false, 0, host),
            number("hop_latency_us", false, 0, lat_us)}) {
        if (!err.empty()) return fail(ErrorCode::BadField, std::move(err));
      }
      spec.intra_bw = gbps(intra);
      spec.uplink_bw = gbps(uplink);
      spec.host_bw = host == 0 ? 0 : gbps(host);
      spec.hop_latency_s = lat_us * 1e-6;
      out.links = Interconnect::hierarchical(spec);
    }
  } catch (const ConfigError& e) {
    return fail(ErrorCode::BadField, strformat("links: %s", e.what()));
  }
  return out;
}

/// Canonical JSON spelling of a topology (the response echo).
[[nodiscard]] json::Value links_json(const Interconnect& links) {
  json::Object o;
  o.set("shape", std::string(to_string(links.shape())));
  switch (links.shape()) {
    case LinkShape::Uniform:
      o.set("bw_gbps", links.base_bw() / 1e9);
      break;
    case LinkShape::Mixed: {
      o.set("bw_gbps", links.base_bw() / 1e9);
      json::Array overrides;
      for (const Interconnect::Override& ov : links.overrides()) {
        json::Object e;
        e.set("acc", ov.first);
        e.set("bw_gbps", ov.second / 1e9);
        overrides.push_back(json::Value(std::move(e)));
      }
      o.set("overrides", std::move(overrides));
      break;
    }
    case LinkShape::Hierarchical: {
      const Interconnect::HierarchicalSpec& h = links.hier();
      o.set("group_size", h.group_size);
      o.set("intra_gbps", h.intra_bw / 1e9);
      o.set("uplink_gbps", h.uplink_bw / 1e9);
      o.set("host_gbps", h.host_bw / 1e9);
      o.set("hop_latency_us", h.hop_latency_s * 1e6);
      break;
    }
  }
  return json::Value(std::move(o));
}

/// Strict "options" object parse into `out`, shared by both request
/// schemas. An empty `error` means success.
struct OptionsParse {
  ErrorCode code = ErrorCode::BadField;
  std::string error;
};

[[nodiscard]] OptionsParse parse_options_object(const json::Object& obj,
                                                PlanOptions& out) {
  for (const json::Object::Member& m : obj.members()) {
    // The wire spelling is the table's json_key, exactly — the kebab-case
    // CLI spelling is rejected here so the schema has one name per knob.
    const PlanOptionSpec* spec = nullptr;
    for (const PlanOptionSpec& s : plan_option_specs()) {
      if (m.key == s.json_key) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      return {ErrorCode::UnknownField,
              strformat("options.%s: unknown option", m.key.c_str())};
    }
    std::string spelled;
    switch (spec->kind) {
      case PlanOptionSpec::Kind::Bool:
        if (!m.value.is_bool()) {
          return {ErrorCode::BadField,
                  strformat("options.%s: expected a boolean", m.key.c_str())};
        }
        spelled = m.value.as_bool() ? "true" : "false";
        break;
      case PlanOptionSpec::Kind::Double: {
        if (!m.value.is_number()) {
          return {ErrorCode::BadField,
                  strformat("options.%s: expected a number", m.key.c_str())};
        }
        char buf[32];
        const auto [end, ec] =
            std::to_chars(buf, buf + sizeof(buf), m.value.as_number());
        H2H_ASSERT(ec == std::errc());
        spelled.assign(buf, end);
        break;
      }
      case PlanOptionSpec::Kind::Enum:
        if (!m.value.is_string()) {
          return {ErrorCode::BadField,
                  strformat("options.%s: expected one of %.*s", m.key.c_str(),
                            static_cast<int>(spec->values.size()),
                            spec->values.data())};
        }
        spelled = m.value.as_string();
        break;
    }
    if (std::optional<std::string> err = spec->set(out, spelled)) {
      return {ErrorCode::BadField,
              strformat("options.%s: %s", m.key.c_str(), err->c_str())};
    }
  }
  return {};
}

/// The canonical "options" echo: every knob at its effective value,
/// defaults included, unset optionals omitted.
[[nodiscard]] json::Object options_json(const PlanOptions& options) {
  json::Object out;
  for (const PlanOptionSpec& spec : plan_option_specs()) {
    json::Value v = option_value(spec, options);
    if (v.is_null()) continue;  // unset optional (time_budget_s)
    out.set(std::string(spec.json_key), std::move(v));
  }
  return out;
}

/// The "mapping" response object: seq-ordered layer placements plus fused
/// edges (shared by single-model and tenants responses).
[[nodiscard]] json::Value mapping_json(const ModelGraph& model,
                                       const Mapping& mapping,
                                       const LocalityPlan& plan,
                                       const SystemConfig& sys) {
  std::vector<LayerId> order = model.all_layers();
  std::sort(order.begin(), order.end(), [&mapping](LayerId l, LayerId r) {
    return mapping.seq_of(l) < mapping.seq_of(r);
  });
  json::Array layers;
  for (const LayerId id : order) {
    if (model.layer(id).kind == LayerKind::Input) continue;
    json::Object entry;
    entry.set("layer", model.layer(id).name);
    entry.set("acc", sys.spec(mapping.acc_of(id)).name);
    if (plan.pinned(id)) entry.set("pinned", true);
    layers.push_back(json::Value(std::move(entry)));
  }
  json::Array fused;
  for (const LayerId id : order) {
    const auto preds = model.graph().preds(id);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (!plan.fused_in(id, i)) continue;
      json::Object edge;
      edge.set("from", model.layer(preds[i]).name);
      edge.set("to", model.layer(id).name);
      fused.push_back(json::Value(std::move(edge)));
    }
  }
  json::Object out;
  out.set("layers", std::move(layers));
  out.set("fused", std::move(fused));
  return json::Value(std::move(out));
}

/// Shared head of both schemas: "id" then "schema_version", every later
/// error echoing the id. Returns nullopt on success.
template <typename Fail>
[[nodiscard]] std::optional<WireError> parse_head(const json::Object& root,
                                                  std::string& id,
                                                  const Fail& fail) {
  if (const json::Value* v = root.find("id")) {
    if (!v->is_string()) {
      return WireError{ErrorCode::BadField, "id: expected a string", {}};
    }
    id = v->as_string();
  }
  const json::Value* version = root.find("schema_version");
  if (version == nullptr) {
    return fail(ErrorCode::SchemaVersion,
                strformat("missing schema_version (this server speaks %d)",
                          kSchemaVersion));
  }
  if (!version->is_number() ||
      version->as_number() != static_cast<double>(kSchemaVersion)) {
    return fail(ErrorCode::SchemaVersion,
                strformat("unsupported schema_version (this server speaks %d)",
                          kSchemaVersion));
  }
  return std::nullopt;
}

/// The single-model request schema (everything after the line-level JSON
/// checks, which the public entry points share).
[[nodiscard]] std::variant<WireRequest, WireError> parse_single(
    const json::Object& root) {
  WireRequest req;
  const auto fail = [&req](ErrorCode code, std::string message) {
    return WireError{code, std::move(message), req.id};
  };
  if (std::optional<WireError> err = parse_head(root, req.id, fail)) {
    return *err;
  }

  const json::Value* model = root.find("model");
  if (model == nullptr || !model->is_string()) {
    return fail(ErrorCode::BadField,
                "model: expected a string zoo key (required)");
  }
  const std::optional<ZooModel> zoo = zoo_model_by_key(model->as_string());
  if (!zoo) {
    return fail(ErrorCode::UnknownModel,
                strformat("unknown model '%s' (known: %s)",
                          model->as_string().c_str(),
                          known_zoo_keys().c_str()));
  }
  req.model = *zoo;

  if (const json::Value* bw = root.find("bw_gbps")) {
    if (root.find("links") != nullptr) {
      return fail(ErrorCode::BadField,
                  "bw_gbps: conflicts with links (the topology's base "
                  "bandwidth is the scalar view; send one or the other)");
    }
    if (!bw->is_number() || !(bw->as_number() > 0)) {
      return fail(ErrorCode::BadField, "bw_gbps: expected a positive number");
    }
    req.bw_gbps = bw->as_number();
  }

  if (const json::Value* links = root.find("links")) {
    if (!links->is_object()) {
      return fail(ErrorCode::BadField, "links: expected an object");
    }
    LinksParse parsed_links = parse_links_object(links->as_object());
    if (!parsed_links.links) {
      return fail(parsed_links.code, std::move(parsed_links.error));
    }
    req.links = std::move(parsed_links.links);
    req.bw_gbps = req.links->base_bw() / 1e9;
  }

  if (const json::Value* batch = root.find("batch")) {
    const double b = batch->is_number() ? batch->as_number() : -1;
    if (b < 1 || b > kMaxBatch || b != std::floor(b)) {
      return fail(ErrorCode::BadField,
                  strformat("batch: expected an integer in [1, %u]",
                            kMaxBatch));
    }
    req.batch = static_cast<std::uint32_t>(b);
  }

  if (const json::Value* options = root.find("options")) {
    if (!options->is_object()) {
      return fail(ErrorCode::BadField, "options: expected an object");
    }
    OptionsParse op = parse_options_object(options->as_object(), req.options);
    if (!op.error.empty()) return fail(op.code, std::move(op.error));
  }

  if (const json::Value* emit = root.find("emit")) {
    if (!emit->is_object()) {
      return fail(ErrorCode::BadField, "emit: expected an object");
    }
    for (const json::Object::Member& m : emit->as_object().members()) {
      bool* target = nullptr;
      if (m.key == "mapping") {
        target = &req.emit_mapping;
      } else if (m.key == "steps") {
        target = &req.emit_steps;
      } else if (m.key == "timing") {
        target = &req.emit_timing;
      } else {
        return fail(ErrorCode::UnknownField,
                    strformat("emit.%s: unknown field (valid: mapping, "
                              "steps, timing)",
                              m.key.c_str()));
      }
      if (!m.value.is_bool()) {
        return fail(ErrorCode::BadField,
                    strformat("emit.%s: expected a boolean", m.key.c_str()));
      }
      *target = m.value.as_bool();
    }
  }

  for (const json::Object::Member& m : root.members()) {
    if (m.key != "schema_version" && m.key != "id" && m.key != "model" &&
        m.key != "bw_gbps" && m.key != "links" && m.key != "batch" &&
        m.key != "options" && m.key != "emit") {
      return fail(ErrorCode::UnknownField,
                  strformat("%s: unknown field", m.key.c_str()));
    }
  }
  return req;
}

/// The multi-tenant request schema (root "tenants" array; protocol.h).
[[nodiscard]] std::variant<WireTenantsRequest, WireError> parse_tenants(
    const json::Object& root) {
  WireTenantsRequest req;
  const auto fail = [&req](ErrorCode code, std::string message) {
    return WireError{code, std::move(message), req.id};
  };
  if (std::optional<WireError> err = parse_head(root, req.id, fail)) {
    return *err;
  }

  const json::Value* tenants = root.find("tenants");
  if (tenants == nullptr || !tenants->is_array() ||
      tenants->as_array().empty()) {
    return fail(ErrorCode::BadField,
                "tenants: expected a non-empty array (required)");
  }
  if (tenants->as_array().size() > kMaxTenants) {
    return fail(ErrorCode::BadField,
                strformat("tenants: at most %zu tenants per request, got %zu",
                          kMaxTenants, tenants->as_array().size()));
  }
  for (const json::Value& entry : tenants->as_array()) {
    if (!entry.is_object()) {
      return fail(ErrorCode::BadField,
                  "tenants: expected objects with name, model");
    }
    const json::Object& t = entry.as_object();
    for (const json::Object::Member& m : t.members()) {
      if (m.key != "name" && m.key != "model" && m.key != "slo_s" &&
          m.key != "priority" && m.key != "caps") {
        return fail(ErrorCode::UnknownField,
                    strformat("tenants.%s: unknown field", m.key.c_str()));
      }
    }
    TenantRequest tenant;
    const json::Value* name = t.find("name");
    if (name == nullptr || !name->is_string() || name->as_string().empty() ||
        name->as_string().find('/') != std::string::npos) {
      return fail(ErrorCode::BadField,
                  "tenants.name: expected a non-empty string without '/' "
                  "(required)");
    }
    tenant.name = name->as_string();
    for (const TenantRequest& seen : req.tenants) {
      if (seen.name == tenant.name) {
        return fail(ErrorCode::BadField,
                    strformat("tenants.name: duplicate tenant name '%s'",
                              tenant.name.c_str()));
      }
    }
    const json::Value* model = t.find("model");
    if (model == nullptr || !model->is_string()) {
      return fail(ErrorCode::BadField,
                  "tenants.model: expected a string zoo key (required)");
    }
    const std::optional<ZooModel> zoo = zoo_model_by_key(model->as_string());
    if (!zoo) {
      return fail(ErrorCode::UnknownModel,
                  strformat("unknown model '%s' (known: %s)",
                            model->as_string().c_str(),
                            known_zoo_keys().c_str()));
    }
    tenant.model = *zoo;
    if (const json::Value* slo = t.find("slo_s")) {
      if (!slo->is_number() || !(slo->as_number() > 0)) {
        return fail(ErrorCode::BadField,
                    "tenants.slo_s: expected a positive number");
      }
      tenant.slo_s = slo->as_number();
    }
    if (const json::Value* prio = t.find("priority")) {
      const double p = prio->is_number() ? prio->as_number() : -1;
      if (p < 1 || p > 1e6 || p != std::floor(p)) {
        return fail(ErrorCode::BadField,
                    "tenants.priority: expected an integer in [1, 1000000]");
      }
      tenant.priority = static_cast<std::uint32_t>(p);
    }
    if (const json::Value* caps = t.find("caps")) {
      if (!caps->is_string()) {
        return fail(ErrorCode::BadField,
                    "tenants.caps: expected a capability-spec string");
      }
      try {
        tenant.required_caps = parse_caps_spec(caps->as_string());
      } catch (const ConfigError& e) {
        return fail(ErrorCode::BadField,
                    strformat("tenants.caps: %s", e.what()));
      }
    }
    req.tenants.push_back(std::move(tenant));
  }

  if (const json::Value* bw = root.find("bw_gbps")) {
    if (!bw->is_number() || !(bw->as_number() > 0)) {
      return fail(ErrorCode::BadField, "bw_gbps: expected a positive number");
    }
    req.bw_gbps = bw->as_number();
  }

  if (const json::Value* options = root.find("options")) {
    if (!options->is_object()) {
      return fail(ErrorCode::BadField, "options: expected an object");
    }
    OptionsParse op = parse_options_object(options->as_object(), req.options);
    if (!op.error.empty()) return fail(op.code, std::move(op.error));
  }

  if (const json::Value* rounds = root.find("max_rounds")) {
    const double r = rounds->is_number() ? rounds->as_number() : -1;
    if (r < 0 || r > kMaxRounds || r != std::floor(r)) {
      return fail(ErrorCode::BadField,
                  strformat("max_rounds: expected an integer in [0, %u]",
                            kMaxRounds));
    }
    req.max_rounds = static_cast<std::uint32_t>(r);
  }
  if (const json::Value* v = root.find("steal_round")) {
    if (!v->is_bool()) {
      return fail(ErrorCode::BadField, "steal_round: expected a boolean");
    }
    req.steal_round = v->as_bool();
  }
  if (const json::Value* v = root.find("require_slos")) {
    if (!v->is_bool()) {
      return fail(ErrorCode::BadField, "require_slos: expected a boolean");
    }
    req.require_slos = v->as_bool();
  }

  if (const json::Value* emit = root.find("emit")) {
    if (!emit->is_object()) {
      return fail(ErrorCode::BadField, "emit: expected an object");
    }
    for (const json::Object::Member& m : emit->as_object().members()) {
      if (m.key != "mapping") {
        return fail(ErrorCode::UnknownField,
                    strformat("emit.%s: unknown field (valid: mapping)",
                              m.key.c_str()));
      }
      if (!m.value.is_bool()) {
        return fail(ErrorCode::BadField,
                    strformat("emit.%s: expected a boolean", m.key.c_str()));
      }
      req.emit_mapping = m.value.as_bool();
    }
  }

  for (const json::Object::Member& m : root.members()) {
    if (m.key != "schema_version" && m.key != "id" && m.key != "tenants" &&
        m.key != "bw_gbps" && m.key != "options" && m.key != "max_rounds" &&
        m.key != "steal_round" && m.key != "require_slos" &&
        m.key != "emit") {
      return fail(ErrorCode::UnknownField,
                  strformat("%s: unknown field", m.key.c_str()));
    }
  }
  return req;
}

/// The live-repair request schema (root "repair" object; protocol.h).
/// Shares the single-model session-key fields (model/bw_gbps/links/batch)
/// and options/emit with parse_single, spelled identically.
[[nodiscard]] std::variant<WireRepairRequest, WireError> parse_repair(
    const json::Object& root) {
  WireRepairRequest req;
  const auto fail = [&req](ErrorCode code, std::string message) {
    return WireError{code, std::move(message), req.id};
  };
  if (std::optional<WireError> err = parse_head(root, req.id, fail)) {
    return *err;
  }

  const json::Value* repair = root.find("repair");
  H2H_ASSERT(repair != nullptr);  // parse_any_request dispatched on it
  if (!repair->is_object()) {
    return fail(ErrorCode::BadField, "repair: expected an object");
  }
  const json::Object& ev = repair->as_object();
  for (const json::Object::Member& m : ev.members()) {
    if (m.key != "event" && m.key != "acc" && m.key != "scale") {
      return fail(ErrorCode::UnknownField,
                  strformat("repair.%s: unknown field (valid: event, acc, "
                            "scale)",
                            m.key.c_str()));
    }
  }
  const json::Value* kind = ev.find("event");
  if (kind == nullptr || !kind->is_string()) {
    return fail(ErrorCode::BadField,
                "repair.event: expected a string fault kind (required)");
  }
  const std::optional<FaultKind> parsed_kind =
      parse_fault_kind(kind->as_string());
  if (!parsed_kind) {
    return fail(ErrorCode::BadField,
                strformat("repair.event: unknown fault kind '%s' (valid: "
                          "acc_lost, acc_returned, link_degraded, "
                          "link_restored, spec_derated)",
                          kind->as_string().c_str()));
  }
  req.event.kind = *parsed_kind;
  const json::Value* acc = ev.find("acc");
  if (acc == nullptr || !acc->is_number() || acc->as_number() < 0 ||
      acc->as_number() != std::floor(acc->as_number())) {
    return fail(ErrorCode::BadField,
                "repair.acc: expected a non-negative integer (required)");
  }
  req.event.acc = AccId{static_cast<std::uint32_t>(acc->as_number())};
  const json::Value* scale = ev.find("scale");
  if (req.event.has_scale()) {
    if (scale == nullptr || !scale->is_number() ||
        !(scale->as_number() > 0) || scale->as_number() > 1) {
      return fail(ErrorCode::BadField,
                  strformat("repair.scale: expected a number in (0, 1] "
                            "(required for %.*s)",
                            static_cast<int>(to_string(req.event.kind).size()),
                            to_string(req.event.kind).data()));
    }
    req.event.scale = scale->as_number();
  } else if (scale != nullptr) {
    return fail(ErrorCode::BadField,
                strformat("repair.scale: not allowed for %.*s",
                          static_cast<int>(to_string(req.event.kind).size()),
                          to_string(req.event.kind).data()));
  }

  const json::Value* model = root.find("model");
  if (model == nullptr || !model->is_string()) {
    return fail(ErrorCode::BadField,
                "model: expected a string zoo key (required)");
  }
  const std::optional<ZooModel> zoo = zoo_model_by_key(model->as_string());
  if (!zoo) {
    return fail(ErrorCode::UnknownModel,
                strformat("unknown model '%s' (known: %s)",
                          model->as_string().c_str(),
                          known_zoo_keys().c_str()));
  }
  req.model = *zoo;

  if (const json::Value* bw = root.find("bw_gbps")) {
    if (root.find("links") != nullptr) {
      return fail(ErrorCode::BadField,
                  "bw_gbps: conflicts with links (the topology's base "
                  "bandwidth is the scalar view; send one or the other)");
    }
    if (!bw->is_number() || !(bw->as_number() > 0)) {
      return fail(ErrorCode::BadField, "bw_gbps: expected a positive number");
    }
    req.bw_gbps = bw->as_number();
  }
  if (const json::Value* links = root.find("links")) {
    if (!links->is_object()) {
      return fail(ErrorCode::BadField, "links: expected an object");
    }
    LinksParse parsed_links = parse_links_object(links->as_object());
    if (!parsed_links.links) {
      return fail(parsed_links.code, std::move(parsed_links.error));
    }
    req.links = std::move(parsed_links.links);
    req.bw_gbps = req.links->base_bw() / 1e9;
  }
  if (const json::Value* batch = root.find("batch")) {
    const double b = batch->is_number() ? batch->as_number() : -1;
    if (b < 1 || b > kMaxBatch || b != std::floor(b)) {
      return fail(ErrorCode::BadField,
                  strformat("batch: expected an integer in [1, %u]",
                            kMaxBatch));
    }
    req.batch = static_cast<std::uint32_t>(b);
  }
  if (const json::Value* options = root.find("options")) {
    if (!options->is_object()) {
      return fail(ErrorCode::BadField, "options: expected an object");
    }
    OptionsParse op = parse_options_object(options->as_object(), req.options);
    if (!op.error.empty()) return fail(op.code, std::move(op.error));
  }
  if (const json::Value* ratio = root.find("fallback_ratio")) {
    if (!ratio->is_number() || ratio->as_number() < 0) {
      return fail(ErrorCode::BadField,
                  "fallback_ratio: expected a non-negative number");
    }
    req.fallback_ratio = ratio->as_number();
  }
  if (const json::Value* emit = root.find("emit")) {
    if (!emit->is_object()) {
      return fail(ErrorCode::BadField, "emit: expected an object");
    }
    for (const json::Object::Member& m : emit->as_object().members()) {
      bool* target = nullptr;
      if (m.key == "mapping") {
        target = &req.emit_mapping;
      } else if (m.key == "timing") {
        target = &req.emit_timing;
      } else {
        return fail(ErrorCode::UnknownField,
                    strformat("emit.%s: unknown field (valid: mapping, "
                              "timing)",
                              m.key.c_str()));
      }
      if (!m.value.is_bool()) {
        return fail(ErrorCode::BadField,
                    strformat("emit.%s: expected a boolean", m.key.c_str()));
      }
      *target = m.value.as_bool();
    }
  }

  for (const json::Object::Member& m : root.members()) {
    if (m.key != "schema_version" && m.key != "id" && m.key != "repair" &&
        m.key != "model" && m.key != "bw_gbps" && m.key != "links" &&
        m.key != "batch" && m.key != "options" &&
        m.key != "fallback_ratio" && m.key != "emit") {
      return fail(ErrorCode::UnknownField,
                  strformat("%s: unknown field", m.key.c_str()));
    }
  }
  return req;
}

}  // namespace

std::string_view to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::ParseError:
      return "parse_error";
    case ErrorCode::SchemaVersion:
      return "schema_version";
    case ErrorCode::UnknownField:
      return "unknown_field";
    case ErrorCode::BadField:
      return "bad_field";
    case ErrorCode::UnknownModel:
      return "unknown_model";
    case ErrorCode::PlanFailed:
      return "plan_failed";
    case ErrorCode::InfeasibleCapability:
      return "infeasible_capability";
    case ErrorCode::SloViolated:
      return "slo_violated";
    case ErrorCode::UnknownAcc:
      return "unknown_acc";
    case ErrorCode::NoPriorPlan:
      return "no_prior_plan";
    case ErrorCode::InfeasibleRepair:
      return "infeasible_repair";
  }
  return "unknown";
}

std::variant<WireRequest, WireError> parse_request(std::string_view line) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.value) {
    return WireError{ErrorCode::ParseError,
                     strformat("byte %zu: %s", parsed.offset,
                               parsed.error.c_str()),
                     {}};
  }
  if (!parsed.value->is_object()) {
    return WireError{ErrorCode::ParseError, "request must be a JSON object",
                     {}};
  }
  return parse_single(parsed.value->as_object());
}

std::variant<WireRequest, WireTenantsRequest, WireRepairRequest, WireError>
parse_any_request(std::string_view line) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.value) {
    return WireError{ErrorCode::ParseError,
                     strformat("byte %zu: %s", parsed.offset,
                               parsed.error.c_str()),
                     {}};
  }
  if (!parsed.value->is_object()) {
    return WireError{ErrorCode::ParseError, "request must be a JSON object",
                     {}};
  }
  const json::Object& root = parsed.value->as_object();
  if (root.find("tenants") != nullptr) {
    std::variant<WireTenantsRequest, WireError> out = parse_tenants(root);
    if (WireError* err = std::get_if<WireError>(&out)) return std::move(*err);
    return std::move(std::get<WireTenantsRequest>(out));
  }
  if (root.find("repair") != nullptr) {
    std::variant<WireRepairRequest, WireError> out = parse_repair(root);
    if (WireError* err = std::get_if<WireError>(&out)) return std::move(*err);
    return std::move(std::get<WireRepairRequest>(out));
  }
  std::variant<WireRequest, WireError> out = parse_single(root);
  if (WireError* err = std::get_if<WireError>(&out)) return std::move(*err);
  return std::move(std::get<WireRequest>(out));
}

PlanRequest to_plan_request(const WireRequest& request) {
  PlanRequest plan = PlanRequest::zoo(request.model, request.bw_gbps * 1e9,
                                      request.batch);
  plan.options = request.options;
  plan.links = request.links;  // bw_acc is then only a key component
  return plan;
}

std::string write_response(const WireRequest& request,
                           const PlanResponse& response,
                           const ModelGraph& model, const SystemConfig& sys) {
  json::Object root;
  root.set("schema_version", kSchemaVersion);
  if (!request.id.empty()) root.set("id", request.id);
  root.set("ok", true);
  root.set("model", zoo_info(request.model).key);
  root.set("bw_gbps", request.bw_gbps);
  // Canonical topology echo, only for links requests — scalar responses
  // keep their exact pre-topology bytes (pinned by the CI fixtures).
  if (request.links) root.set("links", links_json(*request.links));
  root.set("batch", request.batch == 0 ? 1u : request.batch);

  // Echo every knob at its canonical value so a response is a complete
  // record of what was planned, defaults included.
  root.set("options", options_json(request.options));

  const ScheduleResult& fin = response.final_result();
  root.set("latency_s", fin.latency);
  root.set("energy_j", fin.energy.total());
  root.set("comp_ratio", fin.comp_ratio());
  root.set("stopped_on_budget", response.stopped_on_budget);

  if (request.emit_steps) {
    json::Array steps;
    for (const StepSnapshot& step : response.steps) {
      json::Object s;
      s.set("name", step.name);
      s.set("latency_s", step.result.latency);
      s.set("energy_j", step.result.energy.total());
      steps.push_back(json::Value(std::move(s)));
    }
    root.set("steps", std::move(steps));
  }

  if (request.emit_mapping) {
    root.set("mapping",
             mapping_json(model, response.mapping, response.plan, sys));
  }

  if (request.emit_timing) {
    json::Object timing;
    timing.set("warm", response.warm);
    timing.set("setup_s", response.setup_seconds);
    timing.set("search_s", response.search_seconds);
    root.set("timing", std::move(timing));
  }
  return json::dump(json::Value(std::move(root)));
}

std::string write_tenants_response(const WireTenantsRequest& request,
                                   const CoMapResult& result,
                                   const SystemConfig& sys) {
  H2H_EXPECTS(result.tenants.size() == request.tenants.size());
  json::Object root;
  root.set("schema_version", kSchemaVersion);
  if (!request.id.empty()) root.set("id", request.id);
  root.set("ok", true);

  // Canonical tenant echo merged with the per-tenant verdict, in request
  // (= union declaration) order. No-SLO tenants omit slo_s/slack_s rather
  // than carry a non-JSON infinity.
  json::Array tenants;
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    const TenantRequest& t = request.tenants[i];
    const TenantOutcome& out = result.tenants[i];
    json::Object entry;
    entry.set("name", out.name);
    entry.set("model", zoo_info(*t.model).key);
    if (t.has_slo()) entry.set("slo_s", t.slo_s);
    entry.set("priority", out.priority);
    if (t.required_caps != 0) entry.set("caps", format_caps(t.required_caps));
    entry.set("solo_latency_s", out.solo_latency_s);
    entry.set("seq_latency_s", out.seq_latency_s);
    entry.set("latency_s", out.latency_s);
    if (t.has_slo()) entry.set("slack_s", out.slack_s);
    entry.set("met", out.met);
    tenants.push_back(json::Value(std::move(entry)));
  }
  root.set("tenants", std::move(tenants));

  root.set("bw_gbps", request.bw_gbps);
  root.set("options", options_json(request.options));
  root.set("max_rounds", request.max_rounds);
  root.set("steal_round", request.steal_round);
  root.set("require_slos", request.require_slos);

  root.set("makespan_s", result.schedule.latency);
  root.set("energy_j", result.schedule.energy.total());
  root.set("violation_s", result.violation_s);
  root.set("seq_makespan_s", result.seq_makespan_s);
  root.set("seq_violation_s", result.seq_violation_s);
  root.set("rounds", result.rounds);
  root.set("steal_ran", result.steal_ran);
  root.set("all_slos_met", result.all_slos_met);

  if (request.emit_mapping) {
    root.set("mapping",
             mapping_json(result.model, result.mapping, result.plan, sys));
  }
  return json::dump(json::Value(std::move(root)));
}

std::string write_repair_response(const WireRepairRequest& request,
                                  const RepairResult& result,
                                  const ModelGraph& model,
                                  const SystemConfig& sys) {
  H2H_EXPECTS(result.outcome == RepairOutcome::Repaired);
  H2H_EXPECTS(result.response.has_value());
  json::Object root;
  root.set("schema_version", kSchemaVersion);
  if (!request.id.empty()) root.set("id", request.id);
  root.set("ok", true);
  root.set("model", zoo_info(request.model).key);
  root.set("bw_gbps", request.bw_gbps);
  if (request.links) root.set("links", links_json(*request.links));
  root.set("batch", request.batch == 0 ? 1u : request.batch);
  root.set("options", options_json(request.options));
  root.set("fallback_ratio", request.fallback_ratio);

  json::Object event;
  event.set("event", std::string(to_string(result.event.kind)));
  event.set("acc", result.event.acc.value);
  if (result.event.has_scale()) event.set("scale", result.event.scale);
  root.set("event", std::move(event));

  root.set("outcome", std::string(to_string(result.outcome)));
  root.set("pre_latency_s", result.pre_latency_s);
  // The faulted (repair-nothing) latency is +inf when the old mapping no
  // longer runs at all; JSON has no infinity, so the field is omitted.
  if (std::isfinite(result.faulted_latency_s)) {
    root.set("faulted_latency_s", result.faulted_latency_s);
  }
  root.set("post_latency_s", result.post_latency_s);
  if (result.scratch_latency_s > 0) {
    root.set("scratch_latency_s", result.scratch_latency_s);
  }
  root.set("used_fallback", result.used_fallback);
  root.set("cone_layers", static_cast<unsigned>(result.cone_layers));
  root.set("layers_moved", static_cast<unsigned>(result.layers_moved));
  root.set("weight_bytes_moved",
           static_cast<double>(result.weight_bytes_moved));
  json::Array migrations;
  for (const Migration& m : result.migrations) {
    json::Object entry;
    entry.set("layer", model.layer(m.layer).name);
    entry.set("from", sys.spec(m.from).name);
    entry.set("to", sys.spec(m.to).name);
    entry.set("weight_bytes", static_cast<double>(m.weight_bytes));
    migrations.push_back(json::Value(std::move(entry)));
  }
  root.set("migrations", std::move(migrations));

  if (request.emit_mapping) {
    root.set("mapping", mapping_json(model, result.response->mapping,
                                     result.response->plan, sys));
  }
  if (request.emit_timing) {
    json::Object timing;
    timing.set("repair_s", result.repair_seconds);
    root.set("timing", std::move(timing));
  }
  return json::dump(json::Value(std::move(root)));
}

std::string write_error(const WireError& error) {
  json::Object root;
  root.set("schema_version", kSchemaVersion);
  if (!error.id.empty()) root.set("id", error.id);
  root.set("ok", false);
  json::Object detail;
  detail.set("code", to_string(error.code));
  detail.set("message", error.message);
  root.set("error", std::move(detail));
  return json::dump(json::Value(std::move(root)));
}

}  // namespace h2h::serve
