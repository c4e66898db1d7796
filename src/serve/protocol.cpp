#include "serve/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <optional>
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
// Accelerator indices and group sizes are read into uint32_t; a larger
// number would not convert, so it is a bad field like any other.
constexpr double kMaxU32 = std::numeric_limits<std::uint32_t>::max();

[[nodiscard]] std::string known_zoo_keys() {
  std::string keys;
  for (const ZooInfo& info : zoo_catalog()) {
    if (!keys.empty()) keys += ", ";
    keys += info.key;
  }
  return keys;
}

template <class... Parts>
[[nodiscard]] std::string concat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

/// The first fault of a request line. The readers below throw it, and
/// parse_any_request answers it with the id read so far.
struct Reject {
  ErrorCode code;
  std::string message;
};

/// One JSON object of a request (the root, "links", each override, each
/// tenant, "repair", "emit"), read member by member. Every read records its
/// key, and finish() rejects the first member that no read asked for, so the
/// reads are the schema: no list of allowed names is kept beside them.
/// Known members are read, and checked, before finish() looks for unknown
/// ones. Messages read "<path><key>: <what>" and are built only on a fault.
class Fields {
 public:
  Fields(const json::Object& obj, std::string_view path)
      : obj_(obj), path_(path) {}

  /// The member's value, or nullptr when absent.
  [[nodiscard]] const json::Value* find(std::string_view key) {
    H2H_ASSERT(asked_count_ < asked_.size());
    asked_[asked_count_++] = key;
    return obj_.find(key);
  }

  /// find(), where a present value must pass `valid`, else
  /// "expected <expected>".
  template <class Valid>
  const json::Value* optional(std::string_view key, Valid valid,
                              std::string_view expected) {
    const json::Value* v = find(key);
    if (v != nullptr && !valid(*v)) bad(key, concat("expected ", expected));
    return v;
  }

  /// optional(), where the member must also be present; either fault reads
  /// "expected <expected> (required)".
  template <class Valid>
  const json::Value& required(std::string_view key, Valid valid,
                              std::string_view expected) {
    const json::Value* v = find(key);
    if (v == nullptr || !valid(*v)) {
      bad(key, concat("expected ", expected, " (required)"));
    }
    return *v;
  }

  [[noreturn]] void bad(std::string_view key, std::string_view what,
                        ErrorCode code = ErrorCode::BadField) const {
    throw Reject{code, concat(path_, key, ": ", what)};
  }

  /// Rejects the first member that no read asked for, as
  /// "<path><key>: unknown field" followed by the `suffix` parts.
  template <class... Suffix>
  void finish(const Suffix&... suffix) const {
    if (const json::Object::Member* m = unknown()) {
      bad(m->key, concat("unknown field", suffix...), ErrorCode::UnknownField);
    }
  }

  /// finish(), naming the keys read: " (valid: event, acc, scale)".
  void finish_listing_keys() const {
    if (unknown() == nullptr) return;
    std::string keys;
    for (std::size_t i = 0; i < asked_count_; ++i) {
      if (i > 0) keys += ", ";
      keys += asked_[i];
    }
    finish(" (valid: ", keys, ")");
  }

 private:
  [[nodiscard]] const json::Object::Member* unknown() const {
    const auto asked_end =
        asked_.begin() + static_cast<std::ptrdiff_t>(asked_count_);
    for (const json::Object::Member& m : obj_.members()) {
      if (std::find(asked_.begin(), asked_end, m.key) == asked_end) return &m;
    }
    return nullptr;
  }

  const json::Object& obj_;
  std::string_view path_;
  std::array<std::string_view, 12> asked_{};
  std::size_t asked_count_ = 0;
};

bool is_string(const json::Value& v) { return v.is_string(); }
bool is_bool(const json::Value& v) { return v.is_bool(); }
bool is_number(const json::Value& v) { return v.is_number(); }
bool is_object(const json::Value& v) { return v.is_object(); }
bool is_array(const json::Value& v) { return v.is_array(); }
bool is_positive(const json::Value& v) {
  return v.is_number() && v.as_number() > 0;
}
bool is_non_negative(const json::Value& v) {
  return v.is_number() && v.as_number() >= 0;
}
bool is_non_empty_array(const json::Value& v) {
  return v.is_array() && !v.as_array().empty();
}
bool is_tenant_name(const json::Value& v) {
  return v.is_string() && !v.as_string().empty() &&
         v.as_string().find('/') == std::string::npos;
}

[[nodiscard]] auto integer_in(double lo, double hi) {
  return [lo, hi](const json::Value& v) {
    if (!v.is_number()) return false;
    const double x = v.as_number();
    return x >= lo && x <= hi && x == std::floor(x);
  };
}

/// An optional integer member in [lo, hi].
[[nodiscard]] std::optional<std::uint32_t> read_integer(Fields& fields,
                                                        std::string_view key,
                                                        std::uint32_t lo,
                                                        std::uint32_t hi) {
  const json::Value* v = fields.find(key);
  if (v == nullptr) return std::nullopt;
  if (!integer_in(lo, hi)(*v)) {
    fields.bad(key, strformat("expected an integer in [%u, %u]", lo, hi));
  }
  return static_cast<std::uint32_t>(v->as_number());
}

[[nodiscard]] ZooModel read_model(Fields& fields) {
  const std::string& key =
      fields.required("model", is_string, "a string zoo key").as_string();
  if (const std::optional<ZooModel> zoo = zoo_model_by_key(key)) return *zoo;
  throw Reject{ErrorCode::UnknownModel,
               strformat("unknown model '%s' (known: %s)", key.c_str(),
                         known_zoo_keys().c_str())};
}

/// Canonical-string -> JSON value for one option row (inverse of the string
/// conversion read_options does). Unset options return null.
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

/// The "links" object (schema in protocol.h). Interconnect's own validation
/// errors answer as bad_field "links: ...".
[[nodiscard]] Interconnect read_links(const json::Object& obj) {
  Fields links(obj, "links.");
  const json::Value& shape = links.required(
      "shape", is_string, R"("uniform", "mixed", or "hierarchical")");
  const std::string& kind = shape.as_string();
  // Bandwidths in GB/s on the wire.
  const auto number = [&links](std::string_view key, bool required) {
    const json::Value* v = links.optional(key, is_number, "a number");
    if (v == nullptr && required) links.bad(key, "required for this shape");
    return v == nullptr ? 0.0 : v->as_number();
  };
  std::optional<Interconnect> out;
  try {
    if (kind == "uniform") {
      out = Interconnect::uniform(gbps(number("bw_gbps", true)));
    } else if (kind == "mixed") {
      const double bw = number("bw_gbps", true);
      std::vector<Interconnect::Override> overrides;
      if (const json::Value* ov =
              links.optional("overrides", is_array, "an array")) {
        for (const json::Value& entry : ov->as_array()) {
          if (!entry.is_object()) {
            links.bad("overrides", "expected objects with acc, bw_gbps");
          }
          Fields e(entry.as_object(), "links.overrides.");
          const json::Value& acc = e.required(
              "acc", integer_in(0, kMaxU32), "an integer in [0, 4294967295]");
          const json::Value& acc_bw =
              e.required("bw_gbps", is_number, "a number");
          e.finish();
          overrides.emplace_back(static_cast<std::uint32_t>(acc.as_number()),
                                 gbps(acc_bw.as_number()));
        }
      }
      out = Interconnect::mixed(gbps(bw), std::move(overrides));
    } else if (kind == "hierarchical") {
      const json::Value& group =
          links.required("group_size", integer_in(1, kMaxU32),
                         "an integer in [1, 4294967295]");
      Interconnect::HierarchicalSpec spec;
      spec.group_size = static_cast<std::uint32_t>(group.as_number());
      spec.intra_bw = gbps(number("intra_gbps", true));
      spec.uplink_bw = gbps(number("uplink_gbps", true));
      const double host = number("host_gbps", false);
      spec.host_bw = host == 0 ? 0 : gbps(host);
      spec.hop_latency_s = number("hop_latency_us", false) * 1e-6;
      out = Interconnect::hierarchical(spec);
    } else {
      links.bad("shape", strformat("unknown shape '%s'", kind.c_str()));
    }
  } catch (const ConfigError& e) {
    throw Reject{ErrorCode::BadField, strformat("links: %s", e.what())};
  }
  links.finish(" for shape ", kind);
  return std::move(*out);
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

/// The "options" object. Its members are the rows of plan_option_specs(),
/// spelled by json_key exactly: the kebab-case CLI spelling is rejected, so
/// the schema has one name per knob.
void read_options(Fields& root, PlanOptions& out) {
  const json::Value* v = root.optional("options", is_object, "an object");
  if (v == nullptr) return;
  const Fields options(v->as_object(), "options.");
  for (const json::Object::Member& m : v->as_object().members()) {
    const auto& specs = plan_option_specs();
    const auto spec = std::find_if(
        specs.begin(), specs.end(),
        [&m](const PlanOptionSpec& s) { return m.key == s.json_key; });
    if (spec == specs.end()) {
      options.bad(m.key, "unknown option", ErrorCode::UnknownField);
    }
    std::string spelled;
    switch (spec->kind) {
      case PlanOptionSpec::Kind::Bool:
        if (!m.value.is_bool()) options.bad(m.key, "expected a boolean");
        spelled = m.value.as_bool() ? "true" : "false";
        break;
      case PlanOptionSpec::Kind::Double: {
        if (!m.value.is_number()) options.bad(m.key, "expected a number");
        char buf[32];
        const auto [end, ec] =
            std::to_chars(buf, buf + sizeof(buf), m.value.as_number());
        H2H_ASSERT(ec == std::errc());
        spelled.assign(buf, end);
        break;
      }
      case PlanOptionSpec::Kind::Enum:
        if (!m.value.is_string()) {
          options.bad(m.key, concat("expected one of ", spec->values));
        }
        spelled = m.value.as_string();
        break;
    }
    if (std::optional<std::string> err = spec->set(out, spelled)) {
      options.bad(m.key, *err);
    }
  }
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

/// The members every response line starts with.
[[nodiscard]] json::Object response_head(const std::string& id, bool ok) {
  json::Object root;
  root.set("schema_version", kSchemaVersion);
  if (!id.empty()) root.set("id", id);
  root.set("ok", ok);
  return root;
}

/// The scenario echo of plan and repair responses: model, bw_gbps, the
/// canonical topology (links requests only: scalar responses keep their
/// exact pre-topology bytes, pinned by the CI fixtures), batch, and every
/// knob at its canonical value, defaults included.
template <class Request>
void echo_scenario(json::Object& root, const Request& req) {
  root.set("model", zoo_info(req.model).key);
  root.set("bw_gbps", req.bw_gbps);
  if (req.links) root.set("links", links_json(*req.links));
  root.set("batch", req.batch == 0 ? 1u : req.batch);
  root.set("options", options_json(req.options));
}

/// The "emit" flags of one request kind: wire name and target, in read order.
using EmitFlags = std::initializer_list<std::pair<std::string_view, bool*>>;

/// The "emit" object: one optional boolean per flag.
void read_emit(Fields& root, EmitFlags flags) {
  const json::Value* v = root.optional("emit", is_object, "an object");
  if (v == nullptr) return;
  Fields emit(v->as_object(), "emit.");
  for (const auto& [name, target] : flags) {
    if (const json::Value* b = emit.optional(name, is_bool, "a boolean")) {
      *target = b->as_bool();
    }
  }
  emit.finish_listing_keys();
}

/// The members plan and repair requests share, spelled alike: the session
/// key (model, bw_gbps or links, batch) and the options.
template <class Request>
void read_scenario(Fields& root, Request& req) {
  req.model = read_model(root);
  const json::Value* links = root.find("links");
  if (const json::Value* bw = root.find("bw_gbps")) {
    if (links != nullptr) {
      root.bad("bw_gbps",
               "conflicts with links (the topology's base bandwidth is the "
               "scalar view; send one or the other)");
    }
    if (!is_positive(*bw)) root.bad("bw_gbps", "expected a positive number");
    req.bw_gbps = bw->as_number();
  }
  if (links != nullptr) {
    if (!links->is_object()) root.bad("links", "expected an object");
    req.links = read_links(links->as_object());
    req.bw_gbps = req.links->base_bw() / 1e9;
  }
  if (auto batch = read_integer(root, "batch", 1, kMaxBatch)) {
    req.batch = *batch;
  }
  read_options(root, req.options);
}

[[nodiscard]] WireRequest read_plan(Fields& root) {
  WireRequest req;
  read_scenario(root, req);
  read_emit(root, {{"mapping", &req.emit_mapping},
                   {"steps", &req.emit_steps},
                   {"timing", &req.emit_timing}});
  root.finish();
  return req;
}

[[nodiscard]] TenantRequest read_tenant(
    const json::Object& obj, const std::vector<TenantRequest>& earlier) {
  Fields fields(obj, "tenants.");
  TenantRequest tenant;
  const json::Value& name =
      fields.required("name", is_tenant_name, "a non-empty string without '/'");
  tenant.name = name.as_string();
  for (const TenantRequest& seen : earlier) {
    if (seen.name == tenant.name) {
      fields.bad("name", strformat("duplicate tenant name '%s'",
                                   tenant.name.c_str()));
    }
  }
  tenant.model = read_model(fields);
  if (const json::Value* slo =
          fields.optional("slo_s", is_positive, "a positive number")) {
    tenant.slo_s = slo->as_number();
  }
  if (auto priority = read_integer(fields, "priority", 1, 1'000'000)) {
    tenant.priority = *priority;
  }
  if (const json::Value* caps =
          fields.optional("caps", is_string, "a capability-spec string")) {
    try {
      tenant.required_caps = parse_caps_spec(caps->as_string());
    } catch (const ConfigError& e) {
      fields.bad("caps", e.what());
    }
  }
  fields.finish();
  return tenant;
}

[[nodiscard]] WireTenantsRequest read_tenants(Fields& root) {
  WireTenantsRequest req;
  const json::Array& tenants =
      root.required("tenants", is_non_empty_array, "a non-empty array")
          .as_array();
  if (tenants.size() > kMaxTenants) {
    root.bad("tenants", strformat("at most %zu tenants per request, got %zu",
                                  kMaxTenants, tenants.size()));
  }
  for (const json::Value& entry : tenants) {
    if (!entry.is_object()) {
      root.bad("tenants", "expected objects with name, model");
    }
    req.tenants.push_back(read_tenant(entry.as_object(), req.tenants));
  }
  if (const json::Value* bw =
          root.optional("bw_gbps", is_positive, "a positive number")) {
    req.bw_gbps = bw->as_number();
  }
  read_options(root, req.options);
  if (auto rounds = read_integer(root, "max_rounds", 0, kMaxRounds)) {
    req.max_rounds = *rounds;
  }
  if (const json::Value* v =
          root.optional("steal_round", is_bool, "a boolean")) {
    req.steal_round = v->as_bool();
  }
  if (const json::Value* v =
          root.optional("require_slos", is_bool, "a boolean")) {
    req.require_slos = v->as_bool();
  }
  read_emit(root, {{"mapping", &req.emit_mapping}});
  root.finish();
  return req;
}

[[nodiscard]] FaultEvent read_fault(const json::Object& obj) {
  Fields fields(obj, "repair.");
  const std::string& name =
      fields.required("event", is_string, "a string fault kind").as_string();
  const std::optional<FaultKind> kind = parse_fault_kind(name);
  if (!kind) {
    fields.bad("event",
               strformat("unknown fault kind '%s' (valid: acc_lost, "
                         "acc_returned, link_degraded, link_restored, "
                         "spec_derated)",
                         name.c_str()));
  }
  FaultEvent event;
  event.kind = *kind;
  const json::Value& acc = fields.required("acc", integer_in(0, kMaxU32),
                                          "an integer in [0, 4294967295]");
  event.acc = AccId{static_cast<std::uint32_t>(acc.as_number())};
  const std::string_view kind_name = to_string(event.kind);
  const json::Value* scale = fields.find("scale");
  if (event.has_scale()) {
    if (scale == nullptr || !is_positive(*scale) || scale->as_number() > 1) {
      fields.bad("scale", concat("expected a number in (0, 1] (required for ",
                                 kind_name, ")"));
    }
    event.scale = scale->as_number();
  } else if (scale != nullptr) {
    fields.bad("scale", concat("not allowed for ", kind_name));
  }
  fields.finish_listing_keys();
  return event;
}

[[nodiscard]] WireRepairRequest read_repair(Fields& root) {
  WireRepairRequest req;
  // Present: parse_any_request dispatched on it.
  req.event =
      read_fault(root.optional("repair", is_object, "an object")->as_object());
  read_scenario(root, req);
  const json::Value* ratio =
      root.optional("fallback_ratio", is_non_negative, "a non-negative number");
  if (ratio != nullptr) req.fallback_ratio = ratio->as_number();
  read_emit(root, {{"mapping", &req.emit_mapping},
                   {"timing", &req.emit_timing}});
  root.finish();
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
  const json::Object& obj = parsed.value->as_object();
  std::string id;
  try {
    Fields root(obj, "");
    if (const json::Value* v = root.optional("id", is_string, "a string")) {
      id = v->as_string();
    }
    const json::Value* version = root.find("schema_version");
    if (version == nullptr || !version->is_number() ||
        version->as_number() != static_cast<double>(kSchemaVersion)) {
      throw Reject{ErrorCode::SchemaVersion,
                   strformat("%s schema_version (this server speaks %d)",
                             version == nullptr ? "missing" : "unsupported",
                             kSchemaVersion)};
    }
    const auto with_id = [&id](auto req) {
      req.id = std::move(id);
      return req;
    };
    if (obj.find("tenants") != nullptr) return with_id(read_tenants(root));
    if (obj.find("repair") != nullptr) return with_id(read_repair(root));
    return with_id(read_plan(root));
  } catch (Reject& reject) {
    return WireError{reject.code, std::move(reject.message), std::move(id)};
  }
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
  json::Object root = response_head(request.id, true);
  echo_scenario(root, request);

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
  json::Object root = response_head(request.id, true);

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
  json::Object root = response_head(request.id, true);
  echo_scenario(root, request);
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
  json::Object root = response_head(error.id, false);
  json::Object detail;
  detail.set("code", to_string(error.code));
  detail.set("message", error.message);
  root.set("error", std::move(detail));
  return json::dump(json::Value(std::move(root)));
}

}  // namespace h2h::serve
