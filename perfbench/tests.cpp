// Tests for the benchmark's request generator (ctest in the benchmark
// build). A failure prints the broken expectation and exits 1.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "replay.h"
#include "util/log.h"
#include "workload.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

[[nodiscard]] std::string flatten(const ServeStream& s) {
  std::string out;
  for (const WireLine& w : s.setup) out += w.line + '\n';
  for (const auto& conn : s.connections) {
    out += "--\n";
    for (const WireLine& w : conn) {
      out += w.line + ' ' + w.cls + ' ' + w.key + ' ' +
             std::to_string(w.cell) + ' ' + std::to_string(w.chain) + '\n';
    }
  }
  return out;
}

void same_seed_gives_identical_stream() {
  for (const Workload w : {Workload::ServeWarm, Workload::ServeCold}) {
    const std::string name(workload_name(w));
    const std::string a = flatten(make_serve_stream(w, 7, 600));
    expect(a == flatten(make_serve_stream(w, 7, 600)),
           name + ": same seed, different stream");
    expect(a != flatten(make_serve_stream(w, 8, 600)),
           name + ": seeds 7 and 8 gave the same stream");
    std::size_t lines = 0;
    for (const auto& conn : make_serve_stream(w, 7, 600).connections) {
      lines += conn.size();
    }
    expect(lines == 600, name + ": stream length differs from the count");
  }
  for (std::uint64_t round = 0; round < 4; ++round) {
    const std::vector<std::size_t> order = fig5b_round_order(7, round);
    expect(order == fig5b_round_order(7, round),
           "fig5b: same seed and round, different order");
    expect(std::set<std::size_t>(order.begin(), order.end()).size() == 30 &&
               order.size() == 30,
           "fig5b: a round is not a permutation of the 30 cells");
    expect(order != fig5b_round_order(7, round + 1),
           "fig5b: consecutive rounds share an order");
  }
}

void repair_chains_own_their_keys() {
  for (const Workload w : {Workload::ServeWarm, Workload::ServeCold}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string name =
          std::string(workload_name(w)) + " seed " + std::to_string(seed);
      const ServeStream s = make_serve_stream(w, seed, 900);
      std::map<std::string, std::size_t> chain_conn;  // chain key -> conn
      std::set<std::string> other_keys;
      std::size_t chains = 0;
      for (std::size_t c = 0; c < s.connections.size(); ++c) {
        const std::vector<WireLine>& conn = s.connections[c];
        for (std::size_t i = 0; i < conn.size(); ++i) {
          const WireLine& l = conn[i];
          if (l.chain < 0) {
            other_keys.insert(l.key);
            continue;
          }
          const auto [it, inserted] = chain_conn.emplace(l.key, c);
          expect(inserted || it->second == c,
                 name + ": chain key on two connections: " + l.key);
          if (l.cls.starts_with("plan:")) {
            ++chains;
            expect(i + 2 < conn.size() && conn[i + 1].chain == l.chain &&
                       conn[i + 2].chain == l.chain &&
                       conn[i + 1].cls == "repair:acc_lost" &&
                       conn[i + 2].cls == "repair:acc_returned" &&
                       conn[i + 1].key == l.key && conn[i + 2].key == l.key,
                   name + ": chain is not plan -> acc_lost -> acc_returned");
          }
        }
      }
      expect(chains > 0, name + ": no repair chains");
      for (const auto& [key, conn] : chain_conn) {
        expect(other_keys.count(key) == 0,
               name + ": chain key shared with another request: " + key);
      }
    }
  }
}

void cold_segments_send_the_same_mix() {
  const ServeStream s =
      make_serve_stream(Workload::ServeCold, 5, 3 * kSegmentRequests);
  const std::vector<WireLine>& conn = s.connections[0];
  expect(conn.size() == 3 * kSegmentRequests,
         "serve-cold: stream length differs from the count");
  std::vector<std::map<std::string, std::size_t>> mix(3);
  for (std::size_t i = 0; i < conn.size(); ++i) {
    ++mix[i / kSegmentRequests][conn[i].cls + " cell " +
                                std::to_string(conn[i].cell)];
  }
  expect(mix[0] == mix[1] && mix[1] == mix[2],
         "serve-cold: segments send different class and cell mixes");
}

void replay_answers_every_request_ok() {
  for (const Workload w : {Workload::ServeWarm, Workload::ServeCold}) {
    const std::string name(workload_name(w));
    const ServeStream s = make_serve_stream(w, 1, 600);
    Replayer replayer;
    for (const WireLine& l : s.setup) {
      expect(replayer.process(l.line).ok, name + ": set-up not ok: " + l.line);
    }
    for (const auto& conn : s.connections) {
      for (const WireLine& l : conn) {
        const Served out = replayer.process(l.line);
        expect(out.ok, name + ": not ok: " + l.line + " -> " + out.line);
        // serve-warm's set-up must leave every plan key cached: the
        // session cache holds all of them at once.
        if (w == Workload::ServeWarm && out.kind == Served::Kind::Plan) {
          expect(out.warm, name + ": plan not warm after set-up: " + l.line);
        }
        if (w == Workload::ServeCold && out.kind == Served::Kind::Plan) {
          expect(!out.warm, name + ": plan unexpectedly warm: " + l.line);
        }
      }
    }
  }
}

}  // namespace

int main() {
  h2h::set_log_level(h2h::LogLevel::Warn);
  same_seed_gives_identical_stream();
  repair_chains_own_their_keys();
  cold_segments_send_the_same_mix();
  replay_answers_every_request_ok();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench generator tests passed\n");
  return 0;
}
