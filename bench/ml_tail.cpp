// ML-style traffic under a flapping rail: tail latency of spray vs split.
//
// Two collective-shaped generators drive a 4-node cluster whose second
// rail goes dark for 500µs every 3ms (the PR-4 rail-flap profile):
//
//   ring-allreduce — every rank exchanges a bucket slice with its ring
//                    neighbours for 2*(N-1) steps per round, the
//                    bucketed allreduce an ML framework issues per
//                    gradient tensor;
//   ps-incast      — N-1 workers push gradients at one parameter server,
//                    which answers each with fresh parameters — the
//                    many-to-one burst that makes incast pathological.
//
// Each round is timed individually on the virtual clock into a quantile
// digest, so the table shows mean AND p99/p999/max. The comparison is
// per-packet multipath spraying (CoreConfig::spray) against the paper's
// per-segment split_balance strategy on identical traffic and faults:
// spray keeps every fragment individually re-routable, so one blackout
// costs a fragment re-issue instead of a stalled half-message — the
// difference lives in the tail, which is the whole point.
#include <cstdio>
#include <string>
#include <vector>

#include "nmad/api/session.hpp"
#include "simnet/profiles.hpp"
#include "util/buffer.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace nmad;

constexpr size_t kNodes = 4;

struct RunResult {
  util::QuantileDigest round_us;
  uint64_t spray_reissues = 0;
  uint64_t rails_failed = 0;
  uint64_t rails_revived = 0;
  // Pool growths during the timed phase, across every engine. The warmup
  // rounds size the pools; the measured phase must then be allocation-free
  // even while rails flap, peers crash and gates rejoin.
  uint64_t steady_allocs = 0;
};

// Sum of every engine pool's monotone grow counter.
uint64_t total_pool_grows(api::Cluster& cluster) {
  uint64_t g = 0;
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    const core::Core::AllocStats s = cluster.core(n).alloc_stats();
    g += s.chunk_pool_grows + s.bulk_pool_grows + s.send_pool_grows +
         s.recv_pool_grows;
  }
  return g;
}

// The PR-4 flapping-rail shape: rail 0 healthy, rail 1 dark 500µs every
// 3ms, heartbeat monitor tuned to declare death after 300µs of silence
// and revive through probation in the bright gap.
api::ClusterOptions flap_options(bool spray) {
  api::ClusterOptions options;
  options.nodes = kNodes;

  simnet::NicProfile base_rail;
  simnet::nic_profile_by_name("mx", &base_rail);
  simnet::NicProfile flap_rail = base_rail;
  for (int i = 0; i < 4000; ++i) {
    const double begin = 2500.0 + 3000.0 * i;
    flap_rail.fault.blackouts.push_back({begin, begin + 500.0});
  }
  options.rails = {base_rail, flap_rail};

  core::CoreConfig& cfg = options.core;
  cfg.rail_health = true;  // implies reliability
  cfg.ack_timeout_us = 200.0;
  cfg.ack_delay_us = 5.0;
  cfg.rail_dead_after = 0;
  cfg.max_retries = 20;
  cfg.heartbeat_interval_us = 50.0;
  cfg.suspect_after_us = 150.0;
  cfg.dead_after_us = 300.0;
  cfg.probe_interval_us = 100.0;
  cfg.probation_replies = 2;
  // Both sides of the comparison move the gradient through the
  // rendezvous path; only the body scheduling differs.
  cfg.rdv_threshold_override = 4096;
  if (spray) {
    cfg.spray = true;
  } else {
    cfg.strategy = "split_balance";
  }
  return options;
}

// The gray-failure shape: no blackouts at all — rail 1 keeps beaconing
// but silently drops 5% of its track-0 frames forever. The comparison is
// closed-loop adaptive spray (the continuous score detects the gray rail
// and election evicts it from the stripe set) against the same spray
// machinery with scoring off (static round-robin stripes that keep
// feeding the lossy rail and eat the retransmit tail).
api::ClusterOptions gray_options(bool adaptive) {
  api::ClusterOptions options;
  options.nodes = kNodes;

  simnet::NicProfile base_rail;
  simnet::nic_profile_by_name("mx", &base_rail);
  simnet::NicProfile gray_rail = base_rail;
  gray_rail.fault.seed = 0x6E47ull;
  gray_rail.fault.frame_drop_prob = 0.05;
  options.rails = {base_rail, gray_rail};

  core::CoreConfig& cfg = options.core;
  cfg.rail_health = true;  // implies reliability
  cfg.ack_timeout_us = 200.0;
  cfg.ack_delay_us = 5.0;
  cfg.rail_dead_after = 0;
  cfg.max_retries = 20;
  cfg.heartbeat_interval_us = 50.0;
  // The gray rail must never die of silence: beacons flow through the 5%
  // loss, and the suspect/death thresholds sit beyond any plausible
  // beacon-loss streak. Only the adaptive score can act on this rail.
  cfg.suspect_after_us = 400.0;
  cfg.dead_after_us = 2000.0;
  cfg.probe_interval_us = 100.0;
  cfg.probation_replies = 2;
  cfg.rdv_threshold_override = 4096;
  cfg.spray = true;
  cfg.adaptive = adaptive;
  return options;
}

// Re-arming beacons and a packet mid-flight at teardown would leak pool
// chunks; settle the cluster before it destructs.
void settle(api::Cluster& cluster) {
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    cluster.core(n).stop_health_monitors();
  }
  while (cluster.world().run_one()) {
  }
}

void collect_stats(api::Cluster& cluster, RunResult* out) {
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    const core::CoreStats& s = cluster.core(n).stats();
    out->spray_reissues += s.spray_reissues;
    out->rails_failed += s.rails_failed;
    out->rails_revived += s.rails_revived;
  }
}

// Bucketed ring allreduce: reduce-scatter then allgather, 2*(N-1) steps,
// every rank sending its current slice right and receiving from the left.
RunResult run_allreduce(api::ClusterOptions opts, size_t slice, int rounds,
                        int warmup) {
  api::Cluster cluster(std::move(opts));
  std::vector<std::vector<std::byte>> tx(kNodes), rx(kNodes);
  for (size_t n = 0; n < kNodes; ++n) {
    tx[n].resize(slice);
    rx[n].resize(slice);
    util::fill_pattern({tx[n].data(), slice}, 40 + static_cast<int>(n));
  }

  RunResult result;
  uint64_t warm_grows = 0;
  core::Tag tag = 0;
  for (int round = 0; round < warmup + rounds; ++round) {
    if (round == warmup) warm_grows = total_pool_grows(cluster);
    const double t0 = cluster.now();
    for (size_t step = 0; step < 2 * (kNodes - 1); ++step) {
      std::vector<core::Request*> reqs;
      for (size_t r = 0; r < kNodes; ++r) {
        const size_t right = (r + 1) % kNodes;
        const size_t left = (r + kNodes - 1) % kNodes;
        reqs.push_back(cluster.core(r).irecv(
            cluster.gate(r, left), tag,
            util::MutableBytes{rx[r].data(), slice}));
        reqs.push_back(cluster.core(r).isend(
            cluster.gate(r, right), tag,
            util::ConstBytes{tx[r].data(), slice}));
      }
      cluster.wait_all(reqs);
      for (size_t r = 0; r < kNodes; ++r) {
        cluster.core(r).release(reqs[2 * r]);
        cluster.core(r).release(reqs[2 * r + 1]);
      }
      ++tag;
    }
    if (round >= warmup) result.round_us.add(cluster.now() - t0);
  }
  result.steady_allocs = total_pool_grows(cluster) - warm_grows;
  collect_stats(cluster, &result);
  settle(cluster);
  return result;
}

// Parameter-server incast: workers 1..N-1 push a gradient at rank 0
// simultaneously; the server answers each with updated parameters. The
// round completes when every worker holds fresh parameters.
RunResult run_incast(api::ClusterOptions opts, size_t grad, int rounds,
                     int warmup) {
  api::Cluster cluster(std::move(opts));
  core::Core& server = cluster.core(0);
  std::vector<std::byte> params(grad);
  util::fill_pattern({params.data(), grad}, 7);
  std::vector<std::vector<std::byte>> grads(kNodes), inbox(kNodes),
      fresh(kNodes);
  for (size_t w = 1; w < kNodes; ++w) {
    grads[w].resize(grad);
    inbox[w].resize(grad);
    fresh[w].resize(grad);
    util::fill_pattern({grads[w].data(), grad}, 80 + static_cast<int>(w));
  }

  RunResult result;
  uint64_t warm_grows = 0;
  core::Tag tag = 0;
  for (int round = 0; round < warmup + rounds; ++round) {
    if (round == warmup) warm_grows = total_pool_grows(cluster);
    const double t0 = cluster.now();
    std::vector<core::Request*> push;
    std::vector<core::Request*> server_rx(kNodes, nullptr);
    for (size_t w = 1; w < kNodes; ++w) {
      server_rx[w] = server.irecv(cluster.gate(0, w), tag,
                                  util::MutableBytes{inbox[w].data(), grad});
      push.push_back(cluster.core(w).isend(
          cluster.gate(w, 0), tag, util::ConstBytes{grads[w].data(), grad}));
    }
    // The server turns each gradient around as soon as it lands.
    std::vector<core::Request*> reply(kNodes, nullptr);
    std::vector<core::Request*> fetch(kNodes, nullptr);
    for (size_t w = 1; w < kNodes; ++w) {
      fetch[w] = cluster.core(w).irecv(
          cluster.gate(w, 0), tag, util::MutableBytes{fresh[w].data(), grad});
    }
    for (size_t w = 1; w < kNodes; ++w) {
      cluster.wait(server_rx[w]);
      reply[w] = server.isend(cluster.gate(0, w), tag,
                              util::ConstBytes{params.data(), grad});
    }
    for (size_t w = 1; w < kNodes; ++w) {
      cluster.wait(fetch[w]);
      cluster.wait(reply[w]);
    }
    for (size_t w = 1; w < kNodes; ++w) {
      cluster.wait(push[w - 1]);
      cluster.core(w).release(push[w - 1]);
      cluster.core(w).release(fetch[w]);
      server.release(server_rx[w]);
      server.release(reply[w]);
    }
    ++tag;
    if (round >= warmup) result.round_us.add(cluster.now() - t0);
  }
  result.steady_allocs = total_pool_grows(cluster) - warm_grows;
  collect_stats(cluster, &result);
  settle(cluster);
  return result;
}

// Peer-crash/rejoin cycles on a 2-node pair: the worker node dies for
// 1.5ms out of every 6ms. A gradient push is mid-flight each time the
// lights go out — the lifecycle must unwind it with kPeerDead, fence the
// dead incarnation, and rejoin the restarted peer; the cycle closes with
// the first verified exchange of the new incarnation. The timed quantity
// is the recovery latency past the dark window: detect + probation +
// rejoin handshake + one verified round-trip.
RunResult run_crash(size_t grad, int rounds, int warmup) {
  constexpr double kFirstUs = 2000.0;
  constexpr double kCycleUs = 6000.0;
  constexpr double kDarkUs = 1500.0;

  api::ClusterOptions options;
  options.nodes = 2;
  simnet::NicProfile rail;
  simnet::nic_profile_by_name("mx", &rail);
  options.rails = {rail, rail};
  core::CoreConfig& cfg = options.core;
  cfg.peer_lifecycle = true;  // implies rail_health, implies reliability
  cfg.ack_timeout_us = 200.0;
  cfg.ack_delay_us = 5.0;
  cfg.rail_dead_after = 0;
  cfg.max_retries = 20;
  cfg.heartbeat_interval_us = 50.0;
  cfg.suspect_after_us = 150.0;
  cfg.dead_after_us = 300.0;
  cfg.probe_interval_us = 100.0;
  cfg.probation_replies = 2;
  cfg.peer_death_grace_us = 150.0;
  cfg.rdv_threshold_override = 4096;
  api::Cluster cluster(std::move(options));
  core::Core& a = cluster.core(0);
  core::Core& b = cluster.core(1);

  std::vector<simnet::FaultWindow> crashes;
  for (int i = 0; i < warmup + rounds; ++i) {
    const double begin = kFirstUs + kCycleUs * i;
    crashes.push_back({begin, begin + kDarkUs});
  }
  cluster.fabric().set_node_crashes(1, crashes);

  std::vector<std::byte> out(grad), in(grad);
  util::fill_pattern({out.data(), grad}, 11);

  RunResult result;
  uint64_t warm_grows = 0;
  core::Tag tag = 0;
  for (int round = 0; round < warmup + rounds; ++round) {
    if (round == warmup) warm_grows = total_pool_grows(cluster);
    const double begin = kFirstUs + kCycleUs * round;
    while (cluster.now() < begin - 20.0 && cluster.world().run_one()) {
    }
    // Caught mid-rendezvous by the crash.
    core::Request* victim =
        a.isend(cluster.gate(0, 1), tag++, util::ConstBytes{out.data(), grad});
    const uint64_t a_rejoined = a.stats().peers_rejoined;
    const uint64_t b_rejoined = b.stats().peers_rejoined;
    while ((a.stats().peers_rejoined == a_rejoined ||
            b.stats().peers_rejoined == b_rejoined) &&
           cluster.world().run_one()) {
    }
    // First verified exchange of the new incarnation, both directions.
    core::Request* rx = b.irecv(cluster.gate(1, 0), tag,
                                util::MutableBytes{in.data(), grad});
    core::Request* tx = a.isend(cluster.gate(0, 1), tag,
                                util::ConstBytes{out.data(), grad});
    ++tag;
    core::Request* rx2 = a.irecv(cluster.gate(0, 1), tag,
                                 util::MutableBytes{in.data(), grad});
    core::Request* tx2 = b.isend(cluster.gate(1, 0), tag,
                                 util::ConstBytes{out.data(), grad});
    ++tag;
    cluster.wait(rx);
    cluster.wait(tx);
    cluster.wait(rx2);
    cluster.wait(tx2);
    if (!victim->done()) cluster.wait(victim);
    a.release(victim);  // kPeerDead from the unwind, or ok if it raced in
    a.release(tx);
    a.release(rx2);
    b.release(rx);
    b.release(tx2);
    if (round >= warmup) {
      result.round_us.add(cluster.now() - (begin + kDarkUs));
    }
  }
  result.steady_allocs = total_pool_grows(cluster) - warm_grows;
  collect_stats(cluster, &result);
  settle(cluster);
  return result;
}

void add_row(util::Table* table, const std::string& scenario,
             const std::string& sched, size_t size, const RunResult& r) {
  const util::QuantileDigest& d = r.round_us;
  table->add_row({scenario, sched, util::format_size(size),
                  util::format_fixed(d.mean(), 2),
                  util::format_fixed(d.quantile(0.99), 2),
                  util::format_fixed(d.quantile(0.999), 2),
                  util::format_fixed(d.max(), 2),
                  std::to_string(r.spray_reissues),
                  std::to_string(r.rails_failed),
                  std::to_string(r.steady_allocs)});
}

void json_row(std::FILE* f, bool first, const std::string& scenario,
              const std::string& sched, size_t size, const RunResult& r) {
  const util::QuantileDigest& d = r.round_us;
  std::fprintf(
      f,
      "%s\n    {\"scenario\": \"%s\", \"sched\": \"%s\", \"size\": %zu, "
      "\"rounds\": %llu, \"mean_us\": %.3f, \"p99_us\": %.3f, "
      "\"p999_us\": %.3f, \"max_us\": %.3f, \"spray_reissues\": %llu, "
      "\"rails_failed\": %llu, \"steady_allocs\": %llu}",
      first ? "" : ",", scenario.c_str(), sched.c_str(), size,
      static_cast<unsigned long long>(d.count()), d.mean(),
      d.quantile(0.99), d.quantile(0.999), d.max(),
      static_cast<unsigned long long>(r.spray_reissues),
      static_cast<unsigned long long>(r.rails_failed),
      static_cast<unsigned long long>(r.steady_allocs));
}

}  // namespace

int main(int argc, char** argv) {
  using Kind = util::CliFlags::Kind;
  util::CliFlags flags;
  flags.define("scenario", "all",
               "allreduce, incast, gray, crash, or all");
  flags.define("size", "64K",
               "bucket slice / gradient size per message (rendezvous path "
               "needs >= 4K)",
               Kind::kSize);
  flags.define("rounds", "200", "timed rounds per cell (tail sharpness)",
               Kind::kInt);
  flags.define("warmup", "3", "untimed warmup rounds", Kind::kInt);
  flags.define_bool("csv", false, "emit CSV instead of a table");
  flags.define("json", "", "also write a machine-readable artifact here");
  if (auto st = flags.parse(argc, argv); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    flags.print_help(argv[0]);
    return 2;
  }

  const std::string scenario = flags.get("scenario");
  const size_t size = flags.get_size("size");
  const int rounds = flags.get_int("rounds");
  const int warmup = flags.get_int("warmup");

  struct Cell {
    std::string scenario;
    std::string sched;
    RunResult result;
  };
  std::vector<Cell> cells;
  if (scenario == "allreduce" || scenario == "all") {
    cells.push_back({"ring-allreduce", "spray",
                     run_allreduce(flap_options(true), size, rounds, warmup)});
    cells.push_back({"ring-allreduce", "split",
                     run_allreduce(flap_options(false), size, rounds, warmup)});
  }
  if (scenario == "incast" || scenario == "all") {
    cells.push_back({"ps-incast", "spray",
                     run_incast(flap_options(true), size, rounds, warmup)});
    cells.push_back({"ps-incast", "split",
                     run_incast(flap_options(false), size, rounds, warmup)});
  }
  if (scenario == "gray" || scenario == "all") {
    cells.push_back({"gray-allreduce", "adaptive",
                     run_allreduce(gray_options(true), size, rounds, warmup)});
    cells.push_back({"gray-allreduce", "static",
                     run_allreduce(gray_options(false), size, rounds, warmup)});
    cells.push_back({"gray-incast", "adaptive",
                     run_incast(gray_options(true), size, rounds, warmup)});
    cells.push_back({"gray-incast", "static",
                     run_incast(gray_options(false), size, rounds, warmup)});
  }
  if (scenario == "crash" || scenario == "all") {
    cells.push_back(
        {"peer-crash", "lifecycle", run_crash(size, rounds, warmup)});
  }
  if (cells.empty()) {
    std::fprintf(stderr, "unknown scenario: %s\n", scenario.c_str());
    return 2;
  }

  util::Table table({"scenario", "sched", "size", "mean_us", "p99_us",
                     "p999_us", "max_us", "reissues", "rail_deaths",
                     "allocs"});
  for (const Cell& c : cells) {
    add_row(&table, c.scenario, c.sched, size, c.result);
  }
  if (scenario == "crash") {
    std::printf("## ML-style traffic under peer crash/rejoin cycles "
                "(2 nodes, 2 rails, worker dark 1.5ms every 6ms)\n");
  } else if (scenario == "gray") {
    std::printf("## ML-style traffic under a gray rail "
                "(4 nodes, 2 rails, rail 1 dropping 5%% but beaconing)\n");
  } else if (scenario == "all") {
    std::printf("## ML-style traffic, rail-flap (spray vs split) and "
                "gray-rail (adaptive vs static) profiles\n");
  } else {
    std::printf("## ML-style traffic under rail flap "
                "(4 nodes, 2 rails, rail 1 dark 500us every 3ms)\n");
  }
  if (flags.get_bool("csv")) {
    table.print_csv(stdout);
  } else {
    table.print();
  }
  std::printf("\n");

  const std::string json = flags.get("json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 2;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ml_tail\",\n  \"unit\": \"us\",\n"
                 "  \"rows\": [");
    for (size_t i = 0; i < cells.size(); ++i) {
      json_row(f, i == 0, cells[i].scenario, cells[i].sched, size,
               cells[i].result);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json.c_str());
  }
  return 0;
}
