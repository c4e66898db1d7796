// The serve wire protocol (serve/protocol.h): schema validation, versioned
// error responses, and the response serialization contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "accel/capability.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/str.h"

namespace h2h {
namespace {

using serve::ErrorCode;
using serve::WireError;
using serve::WireRequest;

[[nodiscard]] WireRequest parse_ok(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireRequest>(parsed)) << line;
  if (const WireError* err = std::get_if<WireError>(&parsed)) {
    ADD_FAILURE() << serve::to_string(err->code) << ": " << err->message;
    return {};
  }
  if (!std::holds_alternative<WireRequest>(parsed)) return {};
  return std::get<WireRequest>(std::move(parsed));
}

[[nodiscard]] WireError parse_err(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireError>(parsed)) << line;
  if (!std::holds_alternative<WireError>(parsed)) return {};
  return std::get<WireError>(std::move(parsed));
}

TEST(ServeProtocol, ParsesMinimalRequestWithDefaults) {
  const WireRequest req =
      parse_ok(R"({"schema_version":1,"model":"mocap"})");
  EXPECT_EQ(req.model, ZooModel::MoCap);
  EXPECT_TRUE(req.id.empty());
  EXPECT_DOUBLE_EQ(req.bw_gbps, 0.5);
  EXPECT_EQ(req.batch, 0u);
  EXPECT_TRUE(req.options.run_remapping);
  EXPECT_TRUE(req.emit_mapping);
  EXPECT_TRUE(req.emit_steps);
  EXPECT_TRUE(req.emit_timing);
}

TEST(ServeProtocol, ParsesFullRequest) {
  const WireRequest req = parse_ok(
      R"({"schema_version":1,"id":"r-7","model":"vlocnet","bw_gbps":0.125,)"
      R"("batch":4,"options":{"remap":false,"knapsack":"greedy",)"
      R"("objective":"edp","time_budget_s":0.25},)"
      R"("emit":{"mapping":false,"timing":false}})");
  EXPECT_EQ(req.id, "r-7");
  EXPECT_EQ(req.model, ZooModel::VLocNet);
  EXPECT_DOUBLE_EQ(req.bw_gbps, 0.125);
  EXPECT_EQ(req.batch, 4u);
  EXPECT_FALSE(req.options.run_remapping);
  EXPECT_EQ(req.options.weight.algo, KnapsackAlgo::GreedyDensity);
  EXPECT_EQ(req.options.remap.objective,
            RemapObjective::EnergyDelayProduct);
  ASSERT_TRUE(req.options.time_budget_s.has_value());
  EXPECT_DOUBLE_EQ(*req.options.time_budget_s, 0.25);
  EXPECT_FALSE(req.emit_mapping);
  EXPECT_TRUE(req.emit_steps);
  EXPECT_FALSE(req.emit_timing);
}

TEST(ServeProtocol, RejectsMalformedJson) {
  EXPECT_EQ(parse_err("not json").code, ErrorCode::ParseError);
  EXPECT_EQ(parse_err("[1,2,3]").code, ErrorCode::ParseError);
  EXPECT_EQ(parse_err("").code, ErrorCode::ParseError);
}

TEST(ServeProtocol, RejectsMissingOrWrongSchemaVersion) {
  EXPECT_EQ(parse_err(R"({"model":"mocap"})").code,
            ErrorCode::SchemaVersion);
  EXPECT_EQ(parse_err(R"({"schema_version":2,"model":"mocap"})").code,
            ErrorCode::SchemaVersion);
  EXPECT_EQ(parse_err(R"({"schema_version":"1","model":"mocap"})").code,
            ErrorCode::SchemaVersion);
}

TEST(ServeProtocol, RejectsUnknownFieldsEverywhere) {
  const WireError top =
      parse_err(R"({"schema_version":1,"model":"mocap","modle":"x"})");
  EXPECT_EQ(top.code, ErrorCode::UnknownField);
  EXPECT_NE(top.message.find("modle"), std::string::npos);

  const WireError opt = parse_err(
      R"({"schema_version":1,"model":"mocap","options":{"remapp":true}})");
  EXPECT_EQ(opt.code, ErrorCode::UnknownField);

  // The CLI kebab-case spelling is not the wire spelling.
  const WireError cli_spelling = parse_err(
      R"({"schema_version":1,"model":"mocap",)"
      R"("options":{"time-budget":1}})");
  EXPECT_EQ(cli_spelling.code, ErrorCode::UnknownField);

  const WireError emit = parse_err(
      R"({"schema_version":1,"model":"mocap","emit":{"gantt":true}})");
  EXPECT_EQ(emit.code, ErrorCode::UnknownField);
}

TEST(ServeProtocol, RejectsBadFieldValuesAndEchoesId) {
  const WireError bw = parse_err(
      R"({"schema_version":1,"id":"q","model":"mocap","bw_gbps":-1})");
  EXPECT_EQ(bw.code, ErrorCode::BadField);
  EXPECT_EQ(bw.id, "q");

  EXPECT_EQ(parse_err(
                R"({"schema_version":1,"model":"mocap","batch":1.5})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(
                R"({"schema_version":1,"model":"mocap","batch":0})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("options":{"remap":"yes"}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("options":{"time_budget_s":-2}})")
                .code,
            ErrorCode::BadField);
}

TEST(ServeProtocol, RejectsUnknownModelListingKnownKeys) {
  const WireError err =
      parse_err(R"({"schema_version":1,"model":"resnet"})");
  EXPECT_EQ(err.code, ErrorCode::UnknownModel);
  EXPECT_NE(err.message.find("mocap"), std::string::npos);
  EXPECT_NE(err.message.find("vlocnet"), std::string::npos);
}

TEST(ServeProtocol, ErrorResponsesAreVersionedJson) {
  const std::string line = serve::write_error(
      {ErrorCode::UnknownField, "bogus: unknown field", "r1"});
  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  EXPECT_DOUBLE_EQ(obj.find("schema_version")->as_number(), 1.0);
  EXPECT_EQ(obj.find("id")->as_string(), "r1");
  EXPECT_FALSE(obj.find("ok")->as_bool());
  const json::Object& error = obj.find("error")->as_object();
  EXPECT_EQ(error.find("code")->as_string(), "unknown_field");
  EXPECT_EQ(error.find("message")->as_string(), "bogus: unknown field");
}

TEST(ServeProtocol, ResponseRoundTripsThroughTheCodec) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const PlanResponse plan = plan_once(model, sys);

  WireRequest req;
  req.id = "resp-1";
  req.model = ZooModel::MoCap;  // names come from `model`, key is echoed
  req.bw_gbps = 1.0;
  const std::string line = serve::write_response(req, plan, model, sys);

  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  EXPECT_DOUBLE_EQ(obj.find("schema_version")->as_number(), 1.0);
  EXPECT_EQ(obj.find("id")->as_string(), "resp-1");
  EXPECT_TRUE(obj.find("ok")->as_bool());
  EXPECT_EQ(obj.find("model")->as_string(), "mocap");
  EXPECT_EQ(obj.find("batch")->as_number(), 1.0);
  EXPECT_GT(obj.find("latency_s")->as_number(), 0.0);
  EXPECT_GT(obj.find("energy_j")->as_number(), 0.0);

  // Defaults are echoed at canonical values.
  const json::Object& options = obj.find("options")->as_object();
  EXPECT_TRUE(options.find("remap")->as_bool());
  EXPECT_EQ(options.find("knapsack")->as_string(), "exact");
  EXPECT_EQ(options.find("time_budget_s"), nullptr);  // unset -> omitted

  // Four default pipeline steps, mapping covers every non-input layer.
  EXPECT_EQ(obj.find("steps")->as_array().size(), plan.steps.size());
  const json::Object& mapping = obj.find("mapping")->as_object();
  std::size_t non_input = 0;
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind != LayerKind::Input) ++non_input;
  }
  EXPECT_EQ(mapping.find("layers")->as_array().size(), non_input);

  // Timing present by default, absent when not requested.
  EXPECT_NE(obj.find("timing"), nullptr);
  req.emit_timing = false;
  const std::string quiet = serve::write_response(req, plan, model, sys);
  json::ParseResult quiet_parsed = json::parse(quiet);
  ASSERT_TRUE(quiet_parsed.value.has_value());
  EXPECT_EQ(quiet_parsed.value->as_object().find("timing"), nullptr);

  // And the line itself re-serializes byte-stably.
  EXPECT_EQ(json::dump(*parsed.value), line);
}

TEST(ServeProtocolLinks, ParsesAllThreeShapes) {
  const WireRequest u = parse_ok(
      R"({"schema_version":1,"model":"mocap",)"
      R"("links":{"shape":"uniform","bw_gbps":0.25}})");
  ASSERT_TRUE(u.links.has_value());
  EXPECT_EQ(u.links->shape(), LinkShape::Uniform);
  EXPECT_DOUBLE_EQ(u.bw_gbps, 0.25);  // follows the topology's base

  const WireRequest m = parse_ok(
      R"({"schema_version":1,"model":"mocap",)"
      R"("links":{"shape":"mixed","bw_gbps":0.125,)"
      R"("overrides":[{"acc":2,"bw_gbps":1.25},{"acc":0,"bw_gbps":1.25}]}})");
  ASSERT_TRUE(m.links.has_value());
  EXPECT_EQ(m.links->shape(), LinkShape::Mixed);
  ASSERT_EQ(m.links->overrides().size(), 2u);
  EXPECT_EQ(m.links->overrides()[0].first, 0u);  // canonicalized order

  const WireRequest h = parse_ok(
      R"({"schema_version":1,"model":"mocap",)"
      R"("links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,)"
      R"("uplink_gbps":0.25,"host_gbps":0.5,"hop_latency_us":2}})");
  ASSERT_TRUE(h.links.has_value());
  EXPECT_EQ(h.links->shape(), LinkShape::Hierarchical);
  EXPECT_EQ(h.links->hier().group_size, 4u);
  EXPECT_DOUBLE_EQ(h.links->hier().hop_latency_s, 2e-6);
  EXPECT_DOUBLE_EQ(h.bw_gbps, 0.5);
}

TEST(ServeProtocolLinks, RejectsConflictsAndBadShapes) {
  // links and bw_gbps are mutually exclusive.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap","bw_gbps":0.5,)"
                      R"("links":{"shape":"uniform","bw_gbps":0.5}})")
                .code,
            ErrorCode::BadField);
  // Unknown fields inside links fail loudly.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"uniform","bw_gbps":0.5,)"
                      R"("latency":1}})")
                .code,
            ErrorCode::UnknownField);
  // Fields of another shape are unknown for this one.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"uniform","bw_gbps":0.5,)"
                      R"("group_size":4}})")
                .code,
            ErrorCode::UnknownField);
  // Known members are checked before unknown ones: the missing bw_gbps
  // answers, not the stray member.
  const WireError missing_bw =
      parse_err(R"({"schema_version":1,"model":"mocap",)"
                R"("links":{"shape":"uniform","latency":1}})");
  EXPECT_EQ(missing_bw.code, ErrorCode::BadField);
  EXPECT_EQ(missing_bw.message, "links.bw_gbps: required for this shape");
  // Bad values inside a known shape.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"uniform","bw_gbps":0}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"ring","bw_gbps":0.5}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"mixed","bw_gbps":0.5,)"
                      R"("overrides":[{"acc":-1,"bw_gbps":1}]}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"hierarchical","group_size":4,)"
                      R"("intra_gbps":1.25}})")
                .code,
            ErrorCode::BadField);  // uplink missing
}

TEST(ServeProtocolLinks, ResponseEchoesCanonicalTopology) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const PlanResponse plan = plan_once(model, sys);

  const WireRequest req = parse_ok(
      R"({"schema_version":1,"id":"lk-1","model":"mocap",)"
      R"("links":{"shape":"mixed","bw_gbps":0.125,)"
      R"("overrides":[{"acc":2,"bw_gbps":1.25}]}})");
  const std::string line = serve::write_response(req, plan, model, sys);
  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  const json::Value* links = obj.find("links");
  ASSERT_NE(links, nullptr);
  EXPECT_EQ(links->as_object().find("shape")->as_string(), "mixed");
  EXPECT_DOUBLE_EQ(links->as_object().find("bw_gbps")->as_number(), 0.125);
  const json::Array& ov = links->as_object().find("overrides")->as_array();
  ASSERT_EQ(ov.size(), 1u);
  EXPECT_DOUBLE_EQ(ov[0].as_object().find("acc")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(ov[0].as_object().find("bw_gbps")->as_number(), 1.25);

  // A scalar request's response carries no links object — the pre-topology
  // byte layout is pinned by the serve fixtures.
  WireRequest scalar;
  scalar.model = ZooModel::MoCap;
  const std::string plain = serve::write_response(scalar, plan, model, sys);
  json::ParseResult plain_parsed = json::parse(plain);
  ASSERT_TRUE(plain_parsed.value.has_value());
  EXPECT_EQ(plain_parsed.value->as_object().find("links"), nullptr);
}

TEST(ServeProtocolLinks, ToPlanRequestCarriesTheTopology) {
  const WireRequest req = parse_ok(
      R"({"schema_version":1,"model":"casia-surf",)"
      R"("links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,)"
      R"("uplink_gbps":0.25}})");
  const PlanRequest plan = serve::to_plan_request(req);
  ASSERT_TRUE(plan.links.has_value());
  EXPECT_EQ(plan.links->shape(), LinkShape::Hierarchical);
  EXPECT_DOUBLE_EQ(plan.bw_acc, plan.links->base_bw());
}

using serve::WireTenantsRequest;

[[nodiscard]] WireTenantsRequest tenants_ok(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireTenantsRequest>(parsed)) << line;
  if (const WireError* err = std::get_if<WireError>(&parsed)) {
    ADD_FAILURE() << serve::to_string(err->code) << ": " << err->message;
    return {};
  }
  if (!std::holds_alternative<WireTenantsRequest>(parsed)) return {};
  return std::get<WireTenantsRequest>(std::move(parsed));
}

[[nodiscard]] WireError tenants_err(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireError>(parsed)) << line;
  if (const WireError* err = std::get_if<WireError>(&parsed)) {
    return *err;
  }
  return {};
}

TEST(ServeProtocolTenants, NewErrorCodesHaveWireNames) {
  EXPECT_EQ(serve::to_string(ErrorCode::InfeasibleCapability),
            "infeasible_capability");
  EXPECT_EQ(serve::to_string(ErrorCode::SloViolated), "slo_violated");
}

TEST(ServeProtocolTenants, DispatchesOnTheTenantsField) {
  // A single-model line still parses to a WireRequest through the
  // dispatcher.
  auto single = serve::parse_any_request(
      R"({"schema_version":1,"model":"mocap"})");
  EXPECT_TRUE(std::holds_alternative<WireRequest>(single));
}

TEST(ServeProtocolTenants, ParsesMinimalAndFullRequests) {
  const WireTenantsRequest minimal = tenants_ok(
      R"({"schema_version":1,"tenants":[{"name":"a","model":"mocap"}]})");
  ASSERT_EQ(minimal.tenants.size(), 1u);
  EXPECT_EQ(minimal.tenants[0].name, "a");
  EXPECT_EQ(minimal.tenants[0].model, ZooModel::MoCap);
  EXPECT_FALSE(minimal.tenants[0].has_slo());
  EXPECT_EQ(minimal.tenants[0].priority, 1u);
  EXPECT_EQ(minimal.tenants[0].required_caps, 0u);
  EXPECT_DOUBLE_EQ(minimal.bw_gbps, 0.5);
  EXPECT_EQ(minimal.max_rounds, 3u);
  EXPECT_TRUE(minimal.steal_round);
  EXPECT_FALSE(minimal.require_slos);
  EXPECT_TRUE(minimal.emit_mapping);

  const WireTenantsRequest full = tenants_ok(
      R"({"schema_version":1,"id":"t-1",)"
      R"("tenants":[{"name":"cam","model":"casia-surf","slo_s":0.012,)"
      R"("priority":3,"caps":"conv+bigmem"},)"
      R"({"name":"emo","model":"mocap"}],)"
      R"("bw_gbps":0.125,"options":{"remap":false},"max_rounds":1,)"
      R"("steal_round":false,"require_slos":true,)"
      R"("emit":{"mapping":false}})");
  EXPECT_EQ(full.id, "t-1");
  ASSERT_EQ(full.tenants.size(), 2u);
  EXPECT_DOUBLE_EQ(full.tenants[0].slo_s, 0.012);
  EXPECT_EQ(full.tenants[0].priority, 3u);
  EXPECT_EQ(full.tenants[0].required_caps, kCapConv | kCapBigMem);
  EXPECT_DOUBLE_EQ(full.bw_gbps, 0.125);
  EXPECT_FALSE(full.options.run_remapping);
  EXPECT_EQ(full.max_rounds, 1u);
  EXPECT_FALSE(full.steal_round);
  EXPECT_TRUE(full.require_slos);
  EXPECT_FALSE(full.emit_mapping);
}

TEST(ServeProtocolTenants, RejectsBadAndUnknownFields) {
  const auto code = [](const std::string& line) {
    return tenants_err(line).code;
  };
  // tenants itself.
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":"a=mocap"})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[42]})"),
            ErrorCode::BadField);
  // At most 8 tenants per request; the message names the limit.
  std::string nine = R"({"schema_version":1,"tenants":[)";
  for (int i = 0; i < 9; ++i) {
    if (i > 0) nine += ',';
    nine += strformat(R"({"name":"t%d","model":"mocap"})", i);
  }
  nine += "]}";
  const WireError too_many = tenants_err(nine);
  EXPECT_EQ(too_many.code, ErrorCode::BadField);
  EXPECT_NE(too_many.message.find("at most 8 tenants"), std::string::npos)
      << too_many.message;
  // Per-tenant fields: strict names, models, values; no typos.
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[{"model":"mocap"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a/b","model":"mocap"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"},)"
                 R"({"name":"a","model":"vfs"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[{"name":"a"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"resnet"}]})"),
            ErrorCode::UnknownModel);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap","slo_s":0}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap",)"
                 R"("priority":0}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap",)"
                 R"("caps":"warp"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap",)"
                 R"("slo":0.01}]})"),
            ErrorCode::UnknownField);
  // Root-level knobs.
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("max_rounds":-1})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("steal_round":1})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("batch":2})"),
            ErrorCode::UnknownField);  // single-model-only field
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("links":{"shape":"uniform","bw_gbps":1}})"),
            ErrorCode::UnknownField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("emit":{"steps":true}})"),
            ErrorCode::UnknownField);
  // The id still echoes on errors.
  const WireError err = tenants_err(
      R"({"schema_version":1,"id":"e-1","tenants":[]})");
  EXPECT_EQ(err.id, "e-1");
}

TEST(ServeProtocolTenants, ResponseEchoesCanonicalTenantsAndVerdicts) {
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  CoMapper comapper(sys);
  WireTenantsRequest req = tenants_ok(
      R"({"schema_version":1,"id":"resp-t",)"
      R"("tenants":[{"name":"solo","model":"mocap","slo_s":0.5,)"
      R"("caps":"lstm"},{"name":"free","model":"vfs"}],)"
      R"("options":{"remap":false},"max_rounds":1,"steal_round":false})");
  const TenantSet set(req.tenants);
  CoMapOptions opts;
  opts.plan = req.options;
  opts.max_rounds = req.max_rounds;
  opts.steal_round = req.steal_round;
  const CoMapResult result = comapper.co_map(set, opts);

  const std::string line =
      serve::write_tenants_response(req, result, sys);
  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  EXPECT_DOUBLE_EQ(obj.find("schema_version")->as_number(), 1.0);
  EXPECT_EQ(obj.find("id")->as_string(), "resp-t");
  EXPECT_TRUE(obj.find("ok")->as_bool());

  const json::Array& tenants = obj.find("tenants")->as_array();
  ASSERT_EQ(tenants.size(), 2u);
  const json::Object& first = tenants[0].as_object();
  EXPECT_EQ(first.find("name")->as_string(), "solo");
  EXPECT_EQ(first.find("model")->as_string(), "mocap");
  EXPECT_DOUBLE_EQ(first.find("slo_s")->as_number(), 0.5);
  EXPECT_EQ(first.find("caps")->as_string(), "lstm");
  EXPECT_GT(first.find("latency_s")->as_number(), 0.0);
  EXPECT_TRUE(first.find("met")->as_bool());
  // No SLO, no caps -> both omitted rather than spelled as infinities.
  const json::Object& second = tenants[1].as_object();
  EXPECT_EQ(second.find("slo_s"), nullptr);
  EXPECT_EQ(second.find("slack_s"), nullptr);
  EXPECT_EQ(second.find("caps"), nullptr);

  EXPECT_GT(obj.find("makespan_s")->as_number(), 0.0);
  EXPECT_TRUE(obj.find("all_slos_met")->as_bool());
  EXPECT_EQ(obj.find("timing"), nullptr);  // never emitted for tenants
  // Union-model mapping covers every placeable layer of both tenants.
  const json::Object& mapping = obj.find("mapping")->as_object();
  std::size_t non_input = 0;
  for (const LayerId id : result.model.all_layers()) {
    if (result.model.layer(id).kind != LayerKind::Input) ++non_input;
  }
  EXPECT_EQ(mapping.find("layers")->as_array().size(), non_input);
  // And the line re-serializes byte-stably.
  EXPECT_EQ(json::dump(*parsed.value), line);

  // emit.mapping=false drops the mapping block.
  req.emit_mapping = false;
  const std::string quiet =
      serve::write_tenants_response(req, result, sys);
  json::ParseResult quiet_parsed = json::parse(quiet);
  ASSERT_TRUE(quiet_parsed.value.has_value());
  EXPECT_EQ(quiet_parsed.value->as_object().find("mapping"), nullptr);
}


/// Seeded edits of JSON documents: each edit picks one object of the
/// document, at any depth, and replaces one member's value, drops one
/// member, or adds a stray member. Values and keys come from a fixed pool
/// and from the corpus itself, so edits also move members between schemas.
class Mutator {
 public:
  Mutator(const std::vector<json::Value>& corpus, std::uint64_t seed)
      : rng_(seed) {
    for (const char* text :
         {"null", "true", "false", "0", "-1", "1", "0.5", "3", "99", "4097",
          "1e300", R"("")", R"("x")", R"("a/b")", R"("mocap")",
          R"("uniform")", R"("mixed")", R"("acc_lost")", R"("spec_derated")",
          "[]", "[1]", "{}", R"([{"acc":1,"bw_gbps":1}])"}) {
      values_.push_back(*json::parse(text).value);
    }
    keys_ = {"", "zz", "batch", "links", "tenants", "repair", "scale", "steps"};
    for (const json::Value& doc : corpus) collect(doc);
  }

  /// `doc` after `edits` edits.
  [[nodiscard]] json::Value mutate(json::Value doc, int edits) {
    for (int i = 0; i < edits; ++i) {
      std::int64_t target =
          static_cast<std::int64_t>(rng_.index(count_objects(doc)));
      doc = edit(doc, target);
    }
    return doc;
  }

  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  void collect(const json::Value& v) {
    if (v.is_array()) {
      for (const json::Value& e : v.as_array()) collect(e);
    } else if (v.is_object()) {
      for (const json::Object::Member& m : v.as_object().members()) {
        keys_.push_back(m.key);
        values_.push_back(m.value);
        collect(m.value);
      }
    }
  }

  [[nodiscard]] static std::size_t count_objects(const json::Value& v) {
    std::size_t n = 0;
    if (v.is_array()) {
      for (const json::Value& e : v.as_array()) n += count_objects(e);
    } else if (v.is_object()) {
      n = 1;
      for (const json::Object::Member& m : v.as_object().members()) {
        n += count_objects(m.value);
      }
    }
    return n;
  }

  /// A copy of `v` whose `target`-th object, in pre-order, is edited.
  [[nodiscard]] json::Value edit(const json::Value& v, std::int64_t& target) {
    if (v.is_array()) {
      json::Array out;
      for (const json::Value& e : v.as_array()) out.push_back(edit(e, target));
      return json::Value(std::move(out));
    }
    if (!v.is_object()) return v;
    const auto members = v.as_object().members();
    enum class Op { None, Replace, Drop, Add };
    Op op = Op::None;
    if (target-- == 0) {
      op = members.empty() ? Op::Add : static_cast<Op>(rng_.uniform_int(1, 3));
    }
    const std::size_t pick = members.empty() ? 0 : rng_.index(members.size());
    json::Object out;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i == pick && op == Op::Drop) continue;
      out.set(members[i].key, i == pick && op == Op::Replace
                                  ? values_[rng_.index(values_.size())]
                                  : edit(members[i].value, target));
    }
    if (op == Op::Add) {
      out.set(keys_[rng_.index(keys_.size())],
              values_[rng_.index(values_.size())]);
    }
    return json::Value(std::move(out));
  }

  Rng rng_;
  std::vector<json::Value> values_;
  std::vector<std::string> keys_;
};

TEST(ServeProtocol, SeededMutationsOfTheFixturesAnswerOnceInBand) {
  std::ifstream requests(std::string(H2H_SOURCE_DIR) +
                         "/ci/serve_fixtures/requests.jsonl");
  ASSERT_TRUE(requests);
  std::vector<json::Value> corpus;
  for (std::string line; std::getline(requests, line);) {
    corpus.push_back(*json::parse(line).value);
  }
  ASSERT_FALSE(corpus.empty());

  std::set<std::string> codes;
  for (int c = 0; c <= static_cast<int>(ErrorCode::InfeasibleRepair); ++c) {
    codes.emplace(serve::to_string(static_cast<ErrorCode>(c)));
  }
  ASSERT_EQ(codes.size(), 11u);
  ASSERT_EQ(codes.count("unknown"), 0u);

  Mutator mutator(corpus, 20261019);
  std::string rejected;  // every line answered by an error, in order
  std::vector<std::string> answers;
  for (int i = 0; i < 12'000; ++i) {
    const int edits = static_cast<int>(mutator.rng().uniform_int(1, 3));
    const json::Value doc = mutator.mutate(
        corpus[mutator.rng().index(corpus.size())], edits);
    const std::string line = json::dump(doc);
    std::variant<WireRequest, serve::WireTenantsRequest,
                 serve::WireRepairRequest, WireError>
        parsed;
    ASSERT_NO_THROW(parsed = serve::parse_any_request(line)) << line;

    const json::Value* id = doc.as_object().find("id");
    const std::string want_id =
        id != nullptr && id->is_string() ? id->as_string() : "";
    std::visit([&](const auto& req) { EXPECT_EQ(req.id, want_id) << line; },
               parsed);
    const WireError* err = std::get_if<WireError>(&parsed);
    if (err == nullptr) continue;
    const std::string answer = serve::write_error(*err);
    const json::ParseResult back = json::parse(answer);
    ASSERT_TRUE(back.value.has_value() && back.value->is_object()) << answer;
    const json::Object& obj = back.value->as_object();
    const json::Value* error = obj.find("error");
    ASSERT_TRUE(error != nullptr && error->is_object()) << answer;
    const json::Value* code = error->as_object().find("code");
    ASSERT_TRUE(code != nullptr && code->is_string()) << answer;
    EXPECT_EQ(codes.count(code->as_string()), 1u) << answer;
    if (!want_id.empty()) {
      ASSERT_NE(obj.find("id"), nullptr) << answer;
      EXPECT_EQ(obj.find("id")->as_string(), want_id) << answer;
    }
    rejected += line + "\n";
    answers.push_back(answer);
  }
  ASSERT_GT(answers.size(), 1000u);

  // Through the serving loop, each rejected line answers exactly one line,
  // in order. None of them plans, so this stays cheap under sanitizers.
  std::istringstream in(rejected);
  std::ostringstream out;
  const serve::ServeStats stats = serve::serve_jsonl(in, out, {});
  EXPECT_EQ(stats.requests, answers.size());
  EXPECT_EQ(stats.errors, answers.size());
  std::vector<std::string> got;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) got.push_back(line);
  EXPECT_EQ(got, answers);
}

}  // namespace
}  // namespace h2h
