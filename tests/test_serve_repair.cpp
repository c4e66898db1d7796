// The live-repair wire schema (serve/protocol.h root "repair" object) and
// its end-to-end serve flows (serve/server.h): strict parsing, the session
// contract (a repair repairs the plan most recently served for the same
// session key), compounding repairs, and every error code answered in-band
// — unknown_acc, no_prior_plan, and infeasible_repair when a fault
// exhausts a layer kind's providers (satellite of DESIGN.md §12).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "system/system_config.h"
#include "test_helpers.h"
#include "util/str.h"

namespace h2h {
namespace {

using serve::ErrorCode;
using serve::WireError;
using serve::WireRepairRequest;

[[nodiscard]] std::string plan_line(const std::string& model,
                                    const std::string& id) {
  return strformat(
      R"({"schema_version":1,"id":"%s","model":"%s","bw_gbps":0.5,)"
      R"("options":{"time_budget_s":%g},"emit":{"timing":false}})",
      id.c_str(), model.c_str(), testing::search_time_budget());
}

[[nodiscard]] std::string repair_line(const std::string& model,
                                      const std::string& id,
                                      const std::string& event,
                                      unsigned acc,
                                      const std::string& extra = {}) {
  return strformat(
      R"({"schema_version":1,"id":"%s","model":"%s","bw_gbps":0.5,)"
      R"("repair":{"event":"%s","acc":%u%s},)"
      R"("options":{"time_budget_s":%g},"emit":{"timing":false}})",
      id.c_str(), model.c_str(), event.c_str(), acc, extra.c_str(),
      testing::search_time_budget());
}

[[nodiscard]] std::vector<std::string> run_serve(const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  (void)serve::serve_jsonl(in, out, {});
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  return lines;
}

[[nodiscard]] const WireError* as_error(
    const std::variant<serve::WireRequest, serve::WireTenantsRequest,
                       WireRepairRequest, WireError>& parsed) {
  return std::get_if<WireError>(&parsed);
}

// ------------------------------------------------------------- parsing

TEST(ServeRepairProtocol, ParsesMinimalAndFullRequests) {
  const auto minimal = serve::parse_any_request(
      R"({"schema_version":1,"model":"mocap",)"
      R"("repair":{"event":"acc_lost","acc":3}})");
  const auto* req = std::get_if<WireRepairRequest>(&minimal);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->model, ZooModel::MoCap);
  EXPECT_EQ(req->event.kind, FaultKind::AccLost);
  EXPECT_EQ(req->event.acc.value, 3u);
  EXPECT_DOUBLE_EQ(req->fallback_ratio, 1.2);
  EXPECT_TRUE(req->emit_mapping);
  EXPECT_TRUE(req->emit_timing);

  const auto full = serve::parse_any_request(
      R"({"schema_version":1,"id":"x","model":"vfs","bw_gbps":0.25,)"
      R"("batch":2,"repair":{"event":"link_degraded","acc":5,"scale":0.5},)"
      R"("fallback_ratio":2.0,"emit":{"mapping":false,"timing":false}})");
  const auto* freq = std::get_if<WireRepairRequest>(&full);
  ASSERT_NE(freq, nullptr);
  EXPECT_EQ(freq->id, "x");
  EXPECT_EQ(freq->model, ZooModel::Vfs);
  EXPECT_DOUBLE_EQ(freq->bw_gbps, 0.25);
  EXPECT_EQ(freq->batch, 2u);
  EXPECT_EQ(freq->event.kind, FaultKind::LinkDegraded);
  EXPECT_DOUBLE_EQ(freq->event.scale, 0.5);
  EXPECT_DOUBLE_EQ(freq->fallback_ratio, 2.0);
  EXPECT_FALSE(freq->emit_mapping);
  EXPECT_FALSE(freq->emit_timing);
}

TEST(ServeRepairProtocol, RejectsMalformedRepairObjects) {
  const char* bad[] = {
      // Missing / unknown event pieces.
      R"({"schema_version":1,"repair":{}})",
      R"({"schema_version":1,"repair":{"event":"acc_lost"}})",
      R"({"schema_version":1,"repair":{"event":"meteor_strike","acc":0}})",
      R"({"schema_version":1,"repair":{"event":"acc_lost","acc":-1}})",
      // An index past uint32_t does not wrap to accelerator 0.
      R"({"schema_version":1,"model":"mocap",)"
      R"("repair":{"event":"acc_lost","acc":4294967296}})",
      // Scale rules: required for scaled kinds, rejected otherwise.
      R"({"schema_version":1,"repair":{"event":"link_degraded","acc":0}})",
      R"({"schema_version":1,)"
      R"("repair":{"event":"acc_lost","acc":0,"scale":0.5}})",
      R"({"schema_version":1,)"
      R"("repair":{"event":"link_degraded","acc":0,"scale":0}})",
      R"({"schema_version":1,)"
      R"("repair":{"event":"spec_derated","acc":0,"scale":1.5}})",
      // Bad envelope values (model parses first: it must be present for
      // these to reach the intended check).
      R"({"schema_version":1,"repair":{"event":"acc_lost","acc":0}})",
      R"({"schema_version":1,"model":"mocap",)"
      R"("repair":{"event":"acc_lost","acc":0},"fallback_ratio":-1})",
      R"({"schema_version":1,"model":"mocap",)"
      R"("repair":{"event":"acc_lost","acc":0},)"
      R"("bw_gbps":0.5,"links":{"shape":"uniform","bw_gbps":0.5}})",
      // Known members are checked before unknown ones: the missing event
      // answers, not the stray member.
      R"({"schema_version":1,"model":"mocap","repair":{"a":1}})",
  };
  for (const char* line : bad) {
    const auto parsed = serve::parse_any_request(line);
    const WireError* err = as_error(parsed);
    ASSERT_NE(err, nullptr) << line;
    EXPECT_EQ(err->code, ErrorCode::BadField) << line;
  }

  // Strict unknown-field rejection, at the repair level and the root.
  const char* unknown[] = {
      R"({"schema_version":1,)"
      R"("repair":{"event":"acc_lost","acc":0,"why":"gamma rays"}})",
      R"({"schema_version":1,"model":"mocap",)"
      R"("repair":{"event":"acc_lost","acc":0},"retry":true})",
  };
  for (const char* line : unknown) {
    const auto parsed = serve::parse_any_request(line);
    const WireError* err = as_error(parsed);
    ASSERT_NE(err, nullptr) << line;
    EXPECT_EQ(err->code, ErrorCode::UnknownField) << line;
  }
}

// ------------------------------------------------------- end-to-end serve

TEST(ServeRepair, RepairsTheSessionPlanAndCompounds) {
  // Plan, lose an accelerator, then get it back: three ok lines against one
  // session; the second repair compounds on the first.
  const std::string input = plan_line("mocap", "p") + "\n" +
                            repair_line("mocap", "r1", "acc_lost", 0) + "\n" +
                            repair_line("mocap", "r2", "acc_returned", 0) +
                            "\n";
  const std::vector<std::string> lines = run_serve(input);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos);
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_NE(lines[i].find(R"("ok":true)"), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find(R"("outcome":"repaired")"), std::string::npos);
    EXPECT_NE(lines[i].find(R"("mapping")"), std::string::npos);
  }
  EXPECT_NE(lines[1].find(R"("id":"r1")"), std::string::npos);
  // Losing a live accelerator is a dropout: the stale plan cannot run.
  EXPECT_EQ(lines[1].find("faulted_latency_s"), std::string::npos);
  // Its return repairs from the compounded state and the old plan still
  // runs, so the faulted latency is reported.
  EXPECT_NE(lines[2].find("faulted_latency_s"), std::string::npos);

  // Determinism: with timing off the whole session replays byte-identical.
  EXPECT_EQ(lines, run_serve(input));
}

TEST(ServeRepair, AnswersSessionErrorsInBand) {
  const std::string input =
      repair_line("mocap", "orphan", "acc_lost", 0) + "\n" +
      plan_line("mocap", "p") + "\n" +
      repair_line("mocap", "ghost", "acc_lost", 99) + "\n" +
      repair_line("casia-surf", "other", "acc_lost", 0) + "\n";
  const std::vector<std::string> lines = run_serve(input);
  ASSERT_EQ(lines.size(), 4u);
  // No prior plan for this session key yet.
  EXPECT_NE(lines[0].find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(lines[0].find("no_prior_plan"), std::string::npos);
  EXPECT_NE(lines[0].find(R"("id":"orphan")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ok":true)"), std::string::npos);
  // The catalog has 12 accelerators; 99 is answered, not thrown.
  EXPECT_NE(lines[2].find("unknown_acc"), std::string::npos);
  // A different model is a different session key: still no prior plan.
  EXPECT_NE(lines[3].find("no_prior_plan"), std::string::npos);
}

TEST(ServeRepair, CapabilityExhaustionAnswersInfeasibleRepair) {
  // Drop every accelerator that supports the LSTM kind: cnn-lstm cannot be
  // repaired once the last provider dies. The exhausting repair must come
  // back as an in-band infeasible_repair error, and the session must keep
  // serving — the provider's return repairs the stale plan again.
  const SystemConfig probe = SystemConfig::standard(0.5e9);
  const std::vector<AccId> providers = probe.supporting(LayerKind::Lstm);
  ASSERT_GE(providers.size(), 1u);
  ASSERT_LT(providers.size(), probe.accelerator_count());

  std::string input = plan_line("cnn-lstm", "p") + "\n";
  for (std::size_t i = 0; i < providers.size(); ++i)
    input += repair_line("cnn-lstm", strformat("kill%zu", i), "acc_lost",
                         providers[i].value) +
             "\n";
  input += repair_line("cnn-lstm", "revive", "acc_returned",
                       providers.back().value) +
           "\n";
  const std::vector<std::string> lines = run_serve(input);
  ASSERT_EQ(lines.size(), providers.size() + 2);

  // Some earlier kill may already exhaust a capability/kind combination;
  // the last one certainly does. Everything after the first infeasible
  // stays infeasible until the provider returns.
  std::size_t first_bad = 0;
  for (std::size_t i = 1; i <= providers.size(); ++i) {
    if (lines[i].find("infeasible_repair") != std::string::npos) {
      first_bad = i;
      break;
    }
    EXPECT_NE(lines[i].find(R"("ok":true)"), std::string::npos) << lines[i];
  }
  ASSERT_GT(first_bad, 0u) << "killing every LSTM provider stayed feasible";
  for (std::size_t i = first_bad; i <= providers.size(); ++i) {
    EXPECT_NE(lines[i].find(R"("ok":false)"), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("infeasible_repair"), std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines.back().find(R"("id":"revive")"), std::string::npos);
  EXPECT_NE(lines.back().find(R"("outcome":"repaired")"), std::string::npos);
}

}  // namespace
}  // namespace h2h
