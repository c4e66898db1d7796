// Seeded request streams for the three benchmark workloads. Every stream is
// a pure function of (workload, seed, request count): the program under test
// only ever sees the generated lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/zoo.h"
#include "system/system_config.h"

namespace perfbench {

enum class Workload { Fig5bSweep, ServeWarm, ServeCold };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);

/// One Fig. 5b grid cell: a zoo model at one of the five paper bandwidths.
struct Cell {
  h2h::ZooModel model;
  h2h::BandwidthSetting bw;
};

/// The 6 x 5 grid, model-major in zoo catalog order (cell index = model
/// position * 5 + bandwidth position).
[[nodiscard]] const std::vector<Cell>& fig5b_cells();

/// The cell order of one fig5b-sweep round: a seeded permutation of
/// 0..29, different for every round.
[[nodiscard]] std::vector<std::size_t> fig5b_round_order(std::uint64_t seed,
                                                         std::uint64_t round);

/// One generated wire request.
struct WireLine {
  std::string line;  // one JSON request object, no trailing newline
  std::string id;    // the request's "id", echoed by the server
  /// Latency class for the per-class table: "plan:<model>", "tenants",
  /// "repair:acc_lost" or "repair:acc_returned".
  std::string cls;
  /// The server-side session the request reads or writes: plan and repair
  /// requests key on (model, bandwidth or links, batch), tenants requests
  /// on their bandwidth.
  std::string key;
  /// Fig. 5b cell of a plan-mix request (its bandwidth is, or is a fresh
  /// perturbation of, that cell's); -1 for tenants and repair-chain lines.
  int cell = -1;
  /// Repair chain (plan -> acc_lost -> acc_returned) this line belongs to,
  /// -1 otherwise. Chain ids are unique across a stream's connections.
  int chain = -1;
  bool is_plan() const { return cls.starts_with("plan:"); }
};

struct ServeStream {
  /// Priming requests sent on their own connection before the measured
  /// phase, one per session key the measured phase uses (serve-warm only).
  std::vector<WireLine> setup;
  /// One closed-loop request sequence per client connection.
  std::vector<std::vector<WireLine>> connections;
};

/// Serve latency and throughput are measured per segment of this many
/// consecutive requests, and reported as medians over a run's segments: a
/// few seconds of host contention then moves one segment, not the result.
inline constexpr std::size_t kSegmentRequests = 1000;

/// Requests one serve run sends: fixed by the workload and --seconds, never
/// by how fast the server answers (serve-cold's memory grows with every
/// request, so a time limit would make peak RSS depend on speed).
[[nodiscard]] std::size_t serve_request_count(Workload w, int seconds);

/// The serve-warm / serve-cold request stream (see main.cpp for the
/// mixes and why).
[[nodiscard]] ServeStream make_serve_stream(Workload w, std::uint64_t seed,
                                            std::size_t requests);

}  // namespace perfbench
