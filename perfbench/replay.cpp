#include "replay.h"

#include <chrono>
#include <exception>
#include <utility>
#include <variant>

#include "util/error.h"

namespace perfbench {
namespace {

namespace serve = h2h::serve;

/// Where the previous pass ended (or the plan began): the start of the
/// interval run_passes spends outside any pass.
struct PassClock {
  Clock::time_point last;
  bool first = true;
};

/// Forwards to one pass of the default pipeline inside a span, and records
/// the interval since the previous pass ended.
class TracedPass final : public h2h::MappingPass {
 public:
  TracedPass(std::unique_ptr<h2h::MappingPass> inner, const char* label,
             Tracer& tracer, PassClock& clock)
      : MappingPass(inner->name()),
        inner_(std::move(inner)),
        label_(label),
        tracer_(tracer),
        clock_(clock) {}

  void run(h2h::PassContext& ctx) const override {
    const Clock::time_point start = Clock::now();
    tracer_.add(clock_.first ? "planner.session" : "simulator.snapshot",
                clock_.last, start);
    clock_.first = false;
    inner_->run(ctx);
    clock_.last = Clock::now();
    tracer_.add(label_, start, clock_.last);
  }

 private:
  std::unique_ptr<h2h::MappingPass> inner_;
  const char* label_;
  Tracer& tracer_;
  PassClock& clock_;
};

/// Span label of a default-pipeline pass, from its step number.
[[nodiscard]] const char* pass_label(const std::string& name) {
  switch (name.empty() ? '?' : name.front()) {
    case '1':
      return "comp_prioritized";
    case '2':
      return "weight_locality";
    case '3':
      return "activation_fusion";
    case '4':
      return "remapping";
    default:
      return "pass";
  }
}

}  // namespace

h2h::PlanResponse traced_plan(h2h::Planner& planner, h2h::PlanRequest request,
                              Tracer& tracer,
                              h2h::CompPrioritizedStats& step1) {
  request.options.step1.stats = &step1;
  const Tracer::Scope span(&tracer, "planner.plan");
  PassClock clock{Clock::now()};
  h2h::PassPipeline pipeline;
  for (std::unique_ptr<h2h::MappingPass>& pass :
       h2h::make_default_pipeline(request.options, request.warm_start)) {
    const char* label = pass_label(pass->name());
    pipeline.push_back(
        std::make_unique<TracedPass>(std::move(pass), label, tracer, clock));
  }
  h2h::PlanResponse r = planner.plan(request, pipeline);
  tracer.add("simulator.snapshot", clock.last, Clock::now());
  return r;
}

void trace_cost_table_build(const h2h::PlanRequest& request, Tracer& tracer) {
  h2h::ModelGraph model = h2h::make_model(*request.model);
  if (request.batch != 0) model.set_batch(request.batch);
  const h2h::SystemConfig sys =
      request.links ? h2h::SystemConfig::standard(*request.links)
                    : h2h::SystemConfig::standard(request.bw_acc);
  const Tracer::Scope span(&tracer, "cost_table.build");
  const h2h::CostTable table(model, sys);
}

Replayer::Replayer(Tracer* tracer)
    : tracer_(tracer), name_sys_(h2h::SystemConfig::standard(0.5e9)) {}

Served Replayer::process(const std::string& line) {
  Served out;
  const Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope request(tracer_, "request");
    std::variant<serve::WireRequest, serve::WireTenantsRequest,
                 serve::WireRepairRequest, serve::WireError>
        parsed;
    {
      const Tracer::Scope span(tracer_, "protocol.parse");
      parsed = serve::parse_any_request(line);
    }
    if (auto* req = std::get_if<serve::WireRequest>(&parsed)) {
      plan(std::move(*req), out);
    } else if (auto* treq = std::get_if<serve::WireTenantsRequest>(&parsed)) {
      tenants(*treq, out);
    } else if (auto* rreq = std::get_if<serve::WireRepairRequest>(&parsed)) {
      repair(std::move(*rreq), out);
    } else {
      const Tracer::Scope span(tracer_, "protocol.write");
      out.line = serve::write_error(std::get<serve::WireError>(parsed));
    }
  }
  out.service_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

void Replayer::plan(serve::WireRequest req, Served& out) {
  out.kind = Served::Kind::Plan;
  req.emit_timing = false;
  try {
    const h2h::PlanRequest request = serve::to_plan_request(req);
    const h2h::PlanResponse response =
        tracer_ != nullptr
            ? traced_plan(planner_, request, *tracer_, out.step1)
            : planner_.plan(request);
    // A new plan is what the key's next repair adopts, and it resets any
    // compounded repair session for the key.
    const RepairKey key =
        repair_key(req.model, req.batch, req.bw_gbps, req.links);
    priors_.insert_or_assign(key, PriorPlan{response.mapping, response.plan});
    repairs_.erase(key);
    {
      const Tracer::Scope span(tracer_, "protocol.write");
      out.line = serve::write_response(req, response, model_for(req.model),
                                       name_sys_);
    }
    out.ok = true;
    out.warm = response.warm;
    out.setup_s = response.setup_seconds;
    out.search_s = response.search_seconds;
    out.remap = response.remap_stats;
    out.latency_ratio = response.latency_vs_baseline();
    out.energy_ratio = response.energy_vs_baseline();
  } catch (const std::exception& e) {
    out.line = serve::write_error({serve::ErrorCode::PlanFailed, e.what(),
                                   req.id});
  }
}

void Replayer::tenants(const serve::WireTenantsRequest& req, Served& out) {
  out.kind = Served::Kind::Tenants;
  try {
    std::unique_ptr<CoMapSession>& session = comap_[req.bw_gbps];
    if (session == nullptr) {
      session = std::make_unique<CoMapSession>(req.bw_gbps);
    }
    const h2h::TenantSet set(req.tenants);
    h2h::CoMapOptions opts;
    opts.plan = req.options;
    opts.max_rounds = req.max_rounds;
    opts.steal_round = req.steal_round;
    const h2h::CoMapResult result = [&] {
      const Tracer::Scope span(tracer_, "co_mapper");
      return session->comapper.co_map(set, opts);
    }();
    out.rounds = result.rounds;
    if (req.require_slos && !result.all_slos_met) {
      out.line = serve::write_error(
          {serve::ErrorCode::SloViolated, "co-mapping misses SLOs", req.id});
      return;
    }
    const Tracer::Scope span(tracer_, "protocol.write");
    out.line = serve::write_tenants_response(req, result, name_sys_);
    out.ok = true;
  } catch (const h2h::CapabilityError& e) {
    out.line = serve::write_error(
        {serve::ErrorCode::InfeasibleCapability, e.what(), req.id});
  } catch (const h2h::ConfigError& e) {
    out.line =
        serve::write_error({serve::ErrorCode::BadField, e.what(), req.id});
  } catch (const std::exception& e) {
    out.line =
        serve::write_error({serve::ErrorCode::PlanFailed, e.what(), req.id});
  }
}

void Replayer::repair(serve::WireRepairRequest req, Served& out) {
  out.kind = Served::Kind::Repair;
  req.emit_timing = false;
  if (req.event.acc.value >= name_sys_.accelerator_count()) {
    out.line = serve::write_error(
        {serve::ErrorCode::UnknownAcc, "repair.acc: no such accelerator",
         req.id});
    return;
  }
  const RepairKey key =
      repair_key(req.model, req.batch, req.bw_gbps, req.links);
  h2h::RepairOptions opts;
  opts.plan = req.options;
  opts.fallback_ratio = req.fallback_ratio;
  std::unique_ptr<RepairSession>& session = repairs_[key];
  if (session == nullptr) {
    const auto prior = priors_.find(key);
    if (prior == priors_.end()) {
      repairs_.erase(key);
      out.line = serve::write_error(
          {serve::ErrorCode::NoPriorPlan, "repair: no prior plan", req.id});
      return;
    }
    h2h::ModelGraph model = h2h::make_model(req.model);
    if (req.batch != 0) model.set_batch(req.batch);
    h2h::SystemConfig sys =
        req.links ? h2h::SystemConfig::standard(*req.links)
                  : h2h::SystemConfig::standard(req.bw_gbps * 1e9);
    session = std::make_unique<RepairSession>(std::move(model), std::move(sys),
                                              opts);
    session->engine.adopt(prior->second.mapping, prior->second.plan);
  } else {
    session->engine.set_options(opts);
  }
  try {
    const h2h::RepairResult result = [&] {
      const Tracer::Scope span(tracer_, "repair");
      return session->engine.apply(req.event);
    }();
    out.cone_layers = result.cone_layers;
    out.used_fallback = result.used_fallback;
    if (result.outcome == h2h::RepairOutcome::Infeasible) {
      out.line = serve::write_error({serve::ErrorCode::InfeasibleRepair,
                                     result.infeasible_reason, req.id});
      return;
    }
    const Tracer::Scope span(tracer_, "protocol.write");
    out.line = serve::write_repair_response(req, result, session->model,
                                            name_sys_);
    out.ok = true;
  } catch (const h2h::ConfigError& e) {
    out.line =
        serve::write_error({serve::ErrorCode::BadField, e.what(), req.id});
  } catch (const std::exception& e) {
    out.line =
        serve::write_error({serve::ErrorCode::PlanFailed, e.what(), req.id});
  }
}

Replayer::RepairKey Replayer::repair_key(
    h2h::ZooModel model, std::uint32_t batch, double bw_gbps,
    const std::optional<h2h::Interconnect>& links) {
  return RepairKey{model, batch == 0 ? 1u : batch, bw_gbps,
                   links ? links->params_fingerprint() : 0};
}

const h2h::ModelGraph& Replayer::model_for(h2h::ZooModel id) {
  std::unique_ptr<const h2h::ModelGraph>& slot = models_[id];
  if (slot == nullptr) {
    slot = std::make_unique<const h2h::ModelGraph>(h2h::make_model(id));
  }
  return *slot;
}

}  // namespace perfbench
