// Thread-safety of the Planner session cache (DESIGN.md §8): concurrent
// plan() calls must return bit-identical responses to serial ones, eviction
// under contention must not corrupt the cache, and a failed cold build must
// leave no half-constructed session behind.
//
// These tests are the TSan CI job's main workload (they exercise the cache
// lock, the reference-counted checkout, racing duplicate inserts, and the
// session state slot).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "model/zoo.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

/// Thread-side comparator: returns a diagnostic instead of asserting so
/// worker threads never touch gtest state; the main thread reports.
[[nodiscard]] std::string diff_responses(const PlanResponse& a,
                                         const PlanResponse& b) {
  if (a.steps.size() != b.steps.size()) return "step count differs";
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].name != b.steps[i].name) return "step name differs";
    // Bit-identity: exact double comparison is deliberate.
    if (a.steps[i].result.latency != b.steps[i].result.latency ||
        a.steps[i].result.energy.total() !=
            b.steps[i].result.energy.total()) {
      return strformat("step %zu schedule differs", i);
    }
  }
  if (a.mapping.size() != b.mapping.size()) return "mapping size differs";
  for (std::uint32_t v = 0; v < a.mapping.size(); ++v) {
    const LayerId id{v};
    if (a.mapping.acc_of(id) != b.mapping.acc_of(id) ||
        a.mapping.seq_of(id) != b.mapping.seq_of(id)) {
      return strformat("layer %u assignment differs", v);
    }
    if (a.plan.pinned(id) != b.plan.pinned(id)) {
      return strformat("layer %u pin differs", v);
    }
  }
  if (a.plan.fused_edge_count() != b.plan.fused_edge_count()) {
    return "fused edge count differs";
  }
  if (a.remap_stats.attempts != b.remap_stats.attempts ||
      a.remap_stats.accepted != b.remap_stats.accepted) {
    return "remap stats differ";
  }
  return {};
}

[[nodiscard]] PlanRequest cell_request(ZooModel model, BandwidthSetting bw) {
  PlanRequest request = PlanRequest::zoo(model, bw);
  request.options.time_budget_s = testing::search_time_budget();
  return request;
}

// The acceptance pin: N threads hammering one Planner across the
// zoo x {Low-, Mid} grid reproduce the 1-thread responses bit-for-bit,
// whether a request lands cold, warm, or races another thread's build of
// the same session.
TEST(PlannerConcurrency, ThreadedPlansAreBitIdenticalToSerial) {
  const std::vector<ZooModel> models = {
      ZooModel::VLocNet, ZooModel::CasiaSurf, ZooModel::Vfs,
      ZooModel::FaceBag, ZooModel::CnnLstm,   ZooModel::MoCap};
  const std::vector<BandwidthSetting> bws = {BandwidthSetting::LowMinus,
                                             BandwidthSetting::Mid};

  // Serial reference, one response per cell.
  std::vector<PlanResponse> reference;
  {
    Planner serial;
    for (const ZooModel m : models) {
      for (const BandwidthSetting bw : bws) {
        reference.push_back(serial.plan(cell_request(m, bw)));
      }
    }
  }

  Planner shared;
  constexpr std::size_t kThreads = 3;
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the grid at a different rotation so cold builds,
      // warm hits, and same-key races all occur.
      const std::size_t cells = reference.size();
      for (std::size_t i = 0; i < cells; ++i) {
        const std::size_t cell = (i + t * 5) % cells;
        const ZooModel m = models[cell / bws.size()];
        const BandwidthSetting bw = bws[cell % bws.size()];
        const PlanResponse r = shared.plan(cell_request(m, bw));
        const std::string diff = diff_responses(reference[cell], r);
        if (!diff.empty()) {
          const std::scoped_lock lock(failures_mu);
          failures.push_back(strformat("thread %zu cell %zu: %s", t, cell,
                                       diff.c_str()));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_EQ(shared.session_count(), reference.size());
  EXPECT_EQ(shared.cache_hits() + shared.cache_misses(),
            kThreads * reference.size());
}

// Eviction under contention: a cache far smaller than the working set keeps
// evicting live sessions while other threads still hold them. Responses
// must stay bit-identical and the cache within capacity.
TEST(PlannerConcurrency, EvictionStressKeepsResponsesIdentical) {
  const std::vector<BandwidthSetting> bws = {
      BandwidthSetting::LowMinus, BandwidthSetting::Low,
      BandwidthSetting::MidMinus, BandwidthSetting::Mid};

  std::vector<PlanResponse> reference;
  for (const BandwidthSetting bw : bws) {
    Planner one_shot;
    reference.push_back(one_shot.plan(cell_request(ZooModel::MoCap, bw)));
  }

  PlannerOptions options;
  options.max_sessions = 2;  // working set is 4 -> constant eviction
  Planner planner(options);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIterations = 6;
  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        const std::size_t cell = (i + t) % bws.size();
        const PlanResponse r =
            planner.plan(cell_request(ZooModel::MoCap, bws[cell]));
        const std::string diff = diff_responses(reference[cell], r);
        if (!diff.empty()) {
          const std::scoped_lock lock(failures_mu);
          failures.push_back(
              strformat("thread %zu iter %zu: %s", t, i, diff.c_str()));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_LE(planner.session_count(), 2u);
}

// State slots under eviction: threads swap each key's state while others
// plan and evict at capacity 2. A slot only ever holds its own key's state,
// and the cache stays within capacity.
TEST(PlannerConcurrency, SessionStateSwapsUnderEviction) {
  const std::vector<BandwidthSetting> bws = {
      BandwidthSetting::LowMinus, BandwidthSetting::Low,
      BandwidthSetting::MidMinus, BandwidthSetting::Mid};
  PlannerOptions options;
  options.max_sessions = 2;
  Planner planner(options);

  std::atomic<int> foreign{0};
  std::atomic<int> wrong_system{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 6; ++i) {
        (void)planner.plan(
            cell_request(ZooModel::MoCap, bws[(i + t) % bws.size()]));
      }
    });
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 200; ++i) {
        const std::size_t cell = (i + t) % bws.size();
        const PlanRequest request = cell_request(ZooModel::MoCap, bws[cell]);
        if (i % 50 == 0 &&
            planner.simulator(request)->sys().host().bw_acc !=
                bandwidth_value(bws[cell])) {
          ++wrong_system;
        }
        std::shared_ptr<const void> mine =
            std::make_shared<const std::size_t>(cell);
        (void)planner.with_session_state(
            request, [&](std::shared_ptr<const void>& state) {
              if (state != nullptr &&
                  *std::static_pointer_cast<const std::size_t>(state) !=
                      cell) {
                ++foreign;
              }
              state.swap(mine);
            });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(wrong_system.load(), 0);
  EXPECT_LE(planner.session_count(), 2u);
}

// clear_sessions() during in-flight traffic only drops cache references;
// threads holding checked-out sessions finish unharmed.
TEST(PlannerConcurrency, ClearSessionsDuringTrafficIsSafe) {
  Planner reference_planner;
  const PlanResponse reference =
      reference_planner.plan(cell_request(ZooModel::MoCap,
                                          BandwidthSetting::Mid));

  Planner planner;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        const PlanResponse r = planner.plan(
            cell_request(ZooModel::MoCap, BandwidthSetting::Mid));
        if (!diff_responses(reference, r).empty()) ++mismatches;
      }
    });
  }
  for (int i = 0; i < 8; ++i) planner.clear_sessions();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A cold build that throws (invalid model) must not leave a half-built
// session in the LRU: the failed key stays absent, the planner keeps
// serving, and the same failure repeats deterministically.
TEST(PlannerConcurrency, FailedColdBuildLeavesNoSession) {
  Planner planner;
  ModelGraph empty("empty");  // validate() rejects empty graphs

  PlanRequest bad = PlanRequest::for_graph(empty, 0.5e9);
  EXPECT_THROW((void)planner.plan(bad), ConfigError);
  EXPECT_EQ(planner.session_count(), 0u);

  // Still broken on retry (nothing cached), still zero sessions.
  EXPECT_THROW((void)planner.plan(bad), ConfigError);
  EXPECT_EQ(planner.session_count(), 0u);

  // The planner remains fully serviceable afterwards.
  const PlanResponse good = planner.plan(
      cell_request(ZooModel::MoCap, BandwidthSetting::Mid));
  EXPECT_FALSE(good.warm);
  EXPECT_EQ(planner.session_count(), 1u);
  const PlanResponse warm = planner.plan(
      cell_request(ZooModel::MoCap, BandwidthSetting::Mid));
  EXPECT_TRUE(warm.warm);
}

// Same exception-safety contract when the throw comes from the system
// factory rather than model validation.
TEST(PlannerConcurrency, ThrowingSystemFactoryLeavesNoSession) {
  PlannerOptions options;
  options.system_factory = [](double bw) -> SystemConfig {
    if (bw < 0.2e9) throw ConfigError("no system below 0.2 GB/s");
    return SystemConfig::standard(bw);
  };
  Planner planner(options);

  EXPECT_THROW(
      (void)planner.plan(cell_request(ZooModel::MoCap,
                                      BandwidthSetting::LowMinus)),
      ConfigError);
  EXPECT_EQ(planner.session_count(), 0u);

  const PlanResponse good = planner.plan(
      cell_request(ZooModel::MoCap, BandwidthSetting::Mid));
  EXPECT_FALSE(good.warm);
  EXPECT_EQ(planner.session_count(), 1u);
}

// Exception traffic interleaved with good traffic across threads: failures
// never poison the cache for concurrent winners.
TEST(PlannerConcurrency, FailuresDoNotPoisonConcurrentTraffic) {
  Planner reference_planner;
  const PlanResponse reference = reference_planner.plan(
      cell_request(ZooModel::MoCap, BandwidthSetting::Mid));

  Planner planner;
  ModelGraph empty("empty");
  std::atomic<int> mismatches{0};
  std::atomic<int> throws{0};

  std::thread bad([&] {
    for (int i = 0; i < 6; ++i) {
      try {
        (void)planner.plan(PlanRequest::for_graph(empty, 0.5e9));
      } catch (const ConfigError&) {
        ++throws;
      }
    }
  });
  std::thread good([&] {
    for (int i = 0; i < 4; ++i) {
      const PlanResponse r = planner.plan(
          cell_request(ZooModel::MoCap, BandwidthSetting::Mid));
      if (!diff_responses(reference, r).empty()) ++mismatches;
    }
  });
  bad.join();
  good.join();
  EXPECT_EQ(throws.load(), 6);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(planner.session_count(), 1u);
}

}  // namespace
}  // namespace h2h
