#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "util/log.h"
#include "util/str.h"

namespace h2h {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of v (deterministic across runs, unlike
  // std::hash, so fingerprints are stable diagnostics).
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

[[nodiscard]] std::uint64_t fnv_mix(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Session key of a zoo model: tagged so it can never collide with a graph
/// fingerprint of the same model (the two are distinct sessions by design —
/// a zoo hit must not depend on having fingerprinted a caller's graph).
[[nodiscard]] std::uint64_t zoo_session_key(ZooModel id) {
  return fnv_mix(fnv_mix(1469598103934665603ULL, std::string_view("zoo")),
                 static_cast<std::uint64_t>(id));
}

}  // namespace

std::uint64_t model_fingerprint(const ModelGraph& model) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv_mix(h, model.name());
  h = fnv_mix(h, model.dtype_bytes());
  h = fnv_mix(h, model.layer_count());
  for (const LayerId id : model.all_layers()) {
    const Layer& l = model.layer(id);
    h = fnv_mix(h, l.name);
    h = fnv_mix(h, static_cast<std::uint64_t>(l.kind));
    h = fnv_mix(h, l.modality);
    h = fnv_mix(h, l.required_caps);
    h = fnv_mix(h, l.param_count());
    h = fnv_mix(h, l.out_elems());
    h = fnv_mix(h, l.macs());
    h = fnv_mix(h, l.light_ops());
    for (const LayerId p : model.graph().preds(id)) h = fnv_mix(h, p.value);
  }
  return h;
}

PlanRequest PlanRequest::zoo(ZooModel id, double bw_acc, std::uint32_t batch) {
  PlanRequest r;
  r.model = id;
  r.bw_acc = bw_acc;
  r.batch = batch;
  return r;
}

PlanRequest PlanRequest::zoo(ZooModel id, BandwidthSetting bw,
                             std::uint32_t batch) {
  return zoo(id, bandwidth_value(bw), batch);
}

PlanRequest PlanRequest::zoo(ZooModel id, Interconnect links,
                             std::uint32_t batch) {
  PlanRequest r = zoo(id, links.base_bw(), batch);
  r.links = std::move(links);
  return r;
}

PlanRequest PlanRequest::for_graph(const ModelGraph& graph, double bw_acc,
                                   std::uint32_t batch) {
  PlanRequest r;
  r.graph = &graph;
  r.bw_acc = bw_acc;
  r.batch = batch;
  return r;
}

const ScheduleResult* PlanResponse::find_baseline() const {
  for (const StepSnapshot& step : steps) {
    if (step.name.find("weight locality") != std::string::npos)
      return &step.result;
  }
  return nullptr;
}

const ScheduleResult& PlanResponse::baseline_result() const {
  if (const ScheduleResult* baseline = find_baseline()) return *baseline;
  contract_failure("precondition",
                   "baseline_result(): no \"weight locality\" snapshot among "
                   "the executed steps",
                   __FILE__, __LINE__);
}

PassPipeline make_default_pipeline(const PlanOptions& options,
                                   const Mapping* warm_start) {
  PassPipeline pipeline;
  if (warm_start != nullptr) {
    pipeline.push_back(make_warm_start_pass(*warm_start));
  } else {
    pipeline.push_back(make_comp_prioritized_pass(options.step1));
  }
  if (options.run_weight_locality)
    pipeline.push_back(make_weight_locality_pass(options.weight));
  if (options.run_fusion)
    pipeline.push_back(make_activation_fusion_pass(options.fusion));
  if (options.run_remapping)
    pipeline.push_back(make_remapping_pass(options.remap));
  return pipeline;
}

PlanResponse run_passes(const Simulator& sim, const PassPipeline& pipeline,
                        std::optional<double> time_budget_s) {
  H2H_EXPECTS(!pipeline.empty());
  const auto t0 = Clock::now();
  const ModelGraph& model = sim.model();

  PlanResponse r{
      Mapping(model), LocalityPlan(model), {}, {}, 0.0, 0.0, false, false};
  r.plan.ensure_acc_count(sim.sys().accelerator_count());

  PassContext ctx{sim, r.mapping, r.plan, r.remap_stats, std::nullopt, false};
  if (time_budget_s) {
    ctx.deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(*time_budget_s));
  }

  for (const std::unique_ptr<MappingPass>& pass : pipeline) {
    pass->run(ctx);
    r.steps.push_back({pass->name(), sim.simulate(r.mapping, r.plan)});
  }

  r.stopped_on_budget = ctx.stopped_on_budget;
  r.search_seconds = seconds_since(t0);

  if (r.find_baseline() != nullptr) {
    log_debug(strformat(
        "H2H(%s): steps=%zu latency %.6fs -> %.6fs (%.1f%%), search %.3fs",
        model.name().c_str(), r.steps.size(), r.baseline_result().latency,
        r.final_result().latency, r.latency_vs_baseline() * 100.0,
        r.search_seconds));
  } else {
    log_debug(strformat("H2H(%s): steps=%zu latency %.6fs, search %.3fs",
                        model.name().c_str(), r.steps.size(),
                        r.final_result().latency, r.search_seconds));
  }
  return r;
}

/// A session's cache key: the model (zoo key or graph fingerprint), the
/// batch, BW_acc, and the links parameters fingerprint. In shared-system
/// mode BW_acc and links are the shared system's business and key as 0.
struct Planner::Key {
  std::uint64_t model = 0;
  std::uint32_t batch = 1;
  double bw_acc = 0;
  std::uint64_t links_fp = 0;  // 0 = scalar/shared request

  [[nodiscard]] friend bool operator==(const Key&, const Key&) = default;
};

/// One cached scenario: an owned model copy (at the request batch), the
/// system it runs on (owned at the request BW_acc, or the Planner-wide
/// shared one), the Simulator whose CostTable is the reusable state, and the
/// caller's state slot. Shared ownership: the cache holds one reference and
/// every in-flight request holds another, so evicting a session another
/// thread is planning on only drops the cache's reference. Once built, a
/// session is read-only (the exceptions — the shared-system lazy CostTable
/// rebuild and the state slot — happen under mu_).
struct Planner::Session {
  Key key;
  std::optional<ModelGraph> model;
  std::optional<SystemConfig> owned_sys;
  const SystemConfig* sys = nullptr;
  std::optional<Simulator> sim;
  std::shared_ptr<const void> state;  // with_session_state; guarded by mu_
};

Planner::Planner() : Planner(PlannerOptions{}) {}
Planner::Planner(PlannerOptions options) : options_(std::move(options)) {}
Planner::Planner(const SystemConfig& shared_system) : Planner([&] {
  PlannerOptions options;
  options.shared_system = &shared_system;
  return options;
}()) {}
Planner::~Planner() = default;

std::size_t Planner::session_count() const noexcept {
  const std::scoped_lock lock(mu_);
  return lru_.size();
}

void Planner::clear_sessions() noexcept {
  std::vector<std::shared_ptr<Session>> dropped;  // destroyed after unlock
  const std::scoped_lock lock(mu_);
  dropped.swap(lru_);
}

Planner::Key Planner::key_of(const PlanRequest& request) const {
  H2H_EXPECTS(request.model.has_value() != (request.graph != nullptr));
  Key key;
  key.model = request.model ? zoo_session_key(*request.model)
                            : model_fingerprint(*request.graph);
  key.batch = request.batch;
  if (key.batch == 0) {
    key.batch = request.graph != nullptr ? request.graph->batch() : 1;
  }
  // In shared-system mode the bandwidth/topology are the shared system's
  // business: sessions key on the model alone and follow the system's lazy
  // CostTable-rebuild semantics if its BW_acc moves.
  if (options_.shared_system == nullptr) {
    key.bw_acc = request.bw_acc;
    if (request.links) key.links_fp = request.links->params_fingerprint();
  }
  return key;
}

std::shared_ptr<Planner::Session> Planner::touch(const Key& key) {
  const auto it = std::find_if(
      lru_.begin(), lru_.end(),
      [&key](const std::shared_ptr<Session>& s) { return s->key == key; });
  if (it == lru_.end()) return nullptr;
  std::rotate(lru_.begin(), it, it + 1);  // most recent first
  return lru_.front();
}

std::shared_ptr<Planner::Session> Planner::session_for(
    const PlanRequest& request, double& setup_seconds, bool& warm) {
  const Key key = key_of(request);

  // Caller holds mu_.
  const auto checkout = [&]() -> std::shared_ptr<Session> {
    std::shared_ptr<Session> hit = touch(key);
    if (hit == nullptr) return nullptr;
    if (hit->sim->costs_fresh()) {
      warm = true;
      setup_seconds = 0;
    } else {
      // Shared-system mode and the borrowed system's knobs moved
      // (set_bw_acc): rebuild now — under the cache lock, so the handed-out
      // Simulator is always fresh and read-only — billing the cost to
      // setup_seconds, not the search-time window, and the response is not
      // misreported as warm.
      const auto t0 = Clock::now();
      (void)hit->sim->costs();
      setup_seconds = seconds_since(t0);
      warm = false;
    }
    return hit;
  };

  {
    const std::scoped_lock lock(mu_);
    if (std::shared_ptr<Session> hit = checkout()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
  }

  // Cold miss: build the session entirely outside the lock (concurrent
  // misses for different keys construct in parallel) and insert only the
  // finished product — a build that throws leaves the cache untouched.
  misses_.fetch_add(1, std::memory_order_relaxed);
  warm = false;
  const auto t0 = Clock::now();
  auto s = std::make_shared<Session>();
  s->key = key;
  s->model.emplace(request.model ? make_model(*request.model)
                                 : *request.graph);
  s->model->set_batch(key.batch);
  if (request.validate_model) s->model->validate();
  if (options_.shared_system != nullptr) {
    s->sys = options_.shared_system;
  } else if (request.links) {
    s->owned_sys.emplace(SystemConfig::standard(*request.links));
    s->sys = &*s->owned_sys;
  } else {
    H2H_EXPECTS(request.bw_acc > 0);
    s->owned_sys.emplace(options_.system_factory
                             ? options_.system_factory(request.bw_acc)
                             : SystemConfig::standard(request.bw_acc));
    s->sys = &*s->owned_sys;
  }
  s->sim.emplace(*s->model, *s->sys);  // builds the CostTable eagerly
  setup_seconds = seconds_since(t0);

  const double paid_setup = setup_seconds;
  std::size_t cached = 0;
  std::shared_ptr<Session> evicted;  // destroyed after unlock
  {
    const std::scoped_lock lock(mu_);
    // Another thread may have built the same key while we did: keep the
    // first insert as the canonical session and discard ours (this request
    // still reports the cold build it actually paid).
    if (std::shared_ptr<Session> raced = checkout()) {
      warm = false;
      setup_seconds = paid_setup;
      return raced;
    }
    lru_.insert(lru_.begin(), s);
    // Explicit LRU eviction, after the finished session went in: pop the
    // cold end. In-flight requests keep an evicted session alive through
    // their own shared_ptr reference.
    if (lru_.size() > std::max<std::size_t>(1, options_.max_sessions)) {
      evicted = std::move(lru_.back());
      lru_.pop_back();
    }
    cached = lru_.size();
  }
  log_debug(strformat("Planner: built session for '%s' (bw=%.3g batch=%u) "
                      "in %.3fs, %zu cached",
                      s->model->name().c_str(), s->sys->host().bw_acc,
                      key.batch, setup_seconds, cached));
  return s;
}

std::shared_ptr<const Simulator> Planner::simulator(
    const PlanRequest& request) {
  double setup_seconds = 0;
  bool warm = false;
  std::shared_ptr<Session> session = session_for(request, setup_seconds, warm);
  const Simulator* sim = &*session->sim;
  return {std::move(session), sim};
}

bool Planner::with_session_state(
    const PlanRequest& request,
    const std::function<void(std::shared_ptr<const void>&)>& fn) {
  const Key key = key_of(request);
  const std::scoped_lock lock(mu_);
  const std::shared_ptr<Session> session = touch(key);
  if (session == nullptr) return false;
  fn(session->state);
  return true;
}

PlanResponse Planner::plan(const PlanRequest& request) {
  return plan(request, make_default_pipeline(request.options,
                                             request.warm_start));
}

PlanResponse Planner::plan(const PlanRequest& request,
                           const PassPipeline& pipeline) {
  double setup_seconds = 0;
  bool warm = false;
  const std::shared_ptr<Session> session =
      session_for(request, setup_seconds, warm);
  PlanResponse r =
      run_passes(*session->sim, pipeline, request.options.time_budget_s);
  r.setup_seconds = setup_seconds;
  r.warm = warm;
  return r;
}

PlanResponse plan_once(const ModelGraph& model, const SystemConfig& sys,
                       PlanOptions options) {
  model.validate();
  const Simulator sim(model, sys);
  return run_passes(sim, make_default_pipeline(options),
                    options.time_budget_s);
}

}  // namespace h2h
